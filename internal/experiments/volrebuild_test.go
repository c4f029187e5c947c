package experiments

import (
	"testing"
)

// The acceptance bar for the distributed-volume work: an IOhost crash
// mid-run on a striped R=2 volume completes with an exactly-once ledger
// (dup=lost=0) and the rebuild engine restores full replication while the
// foreground load keeps flowing.
func TestVolRebuildRecoversExactlyOnce(t *testing.T) {
	o := runVolRebuildCell(true, 2)
	if o["dup"] != 0 || o["never-completed"] != 0 || o["dev errors"] != 0 {
		t.Fatalf("ledger dup=%v lost=%v errs=%v; want exactly-once with no errors",
			o["dup"], o["never-completed"], o["dev errors"])
	}
	if o["healthy"] != 1 {
		t.Fatal("volume not fully replicated after the crash + drain")
	}
	if o["rebuilt"] == 0 {
		t.Fatal("rebuild engine copied no extents; the crash must cost replicas")
	}
	if o["detect"] < 0 {
		t.Fatal("heartbeat detector never declared the crashed IOhost dead")
	}
	if o["MB/s"] <= 0 {
		t.Fatalf("rebuild bandwidth %.1f MB/s; want > 0", o["MB/s"])
	}
	if o["kops/s"] <= 0 {
		t.Fatal("no foreground throughput")
	}
}

// Quorum write latency must grow with the replication factor: every added
// replica is another ack the write waits for (majority quorum), so the
// R=1 → R=2 → R=3 p99 sequence must be monotone.
func TestVolQuorumLatencyGrowsWithReplication(t *testing.T) {
	prev := 0.0
	for _, r := range []int{1, 2, 3} {
		o := runVolQuorumCell(true, r)
		if o["dup"] != 0 || o["never-completed"] != 0 || o["dev errors"] != 0 {
			t.Fatalf("R=%d: ledger dup=%v lost=%v errs=%v", r, o["dup"], o["never-completed"], o["dev errors"])
		}
		if o["p99"] <= prev {
			t.Fatalf("R=%d: p99 %.1fµs not above R=%d's %.1fµs — quorum cost must grow",
				r, o["p99"], r-1, prev)
		}
		prev = o["p99"]
	}
}

// volrebuild output must be byte-identical at any shard worker count — the
// cells share no state, whatever order they run in.
func TestVolRebuildDeterministicAcrossShardWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	serial := Format(Get("volrebuild")(true))
	for _, workers := range []int{1, 2, 4, 8} {
		got := RunParallel([]string{"volrebuild"}, true, workers)
		if len(got) != 1 {
			t.Fatalf("workers=%d: got %d results, want 1", workers, len(got))
		}
		if s := Format(got[0]); s != serial {
			t.Fatalf("workers=%d: output differs from serial\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serial, s)
		}
	}
}
