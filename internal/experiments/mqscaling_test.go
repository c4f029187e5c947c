package experiments

import (
	"testing"
)

// The acceptance bar for the multi-queue work: block IOPS must rise
// monotonically along the QD=1/NQ=1 → QD=4/NQ=2 → QD=8/NQ=4 diagonal at a
// fixed worker count, with the top of the sweep at least 2x the single-queue
// baseline, exactly-once completions throughout, and no request left in an
// IOhost in-flight table after the drain.
func TestMQScalingMonotoneSpeedup(t *testing.T) {
	diagonal := [][2]int{{1, 1}, {4, 2}, {8, 4}} // {QD, NQ}
	prev := 0.0
	var base, top float64
	for i, pt := range diagonal {
		o := runMQCell(true, pt[0], pt[1], 4)
		if o["dup"] != 0 || o["never-completed"] != 0 || o["dev errors"] != 0 {
			t.Fatalf("QD=%d NQ=%d: ledger dup=%v lost=%v errs=%v; want exactly-once with no errors",
				pt[0], pt[1], o["dup"], o["never-completed"], o["dev errors"])
		}
		if o["inflight left"] != 0 {
			t.Fatalf("QD=%d NQ=%d: %v requests left in IOhost in-flight tables after drain",
				pt[0], pt[1], o["inflight left"])
		}
		if o["kIOPS"] <= prev {
			t.Fatalf("QD=%d NQ=%d: %.1f kIOPS not above previous point %.1f — sweep must be monotone",
				pt[0], pt[1], o["kIOPS"], prev)
		}
		prev = o["kIOPS"]
		if i == 0 {
			base = o["kIOPS"]
		}
		top = o["kIOPS"]
	}
	if top < 2*base {
		t.Fatalf("top of sweep %.1f kIOPS < 2x baseline %.1f kIOPS", top, base)
	}
}

// Multi-queue submission must keep the cross-queue conflict arbitration
// honest: the shared hot region forces overlapping writes, which the
// IOhost-side scheduler serializes (deferred > 0 at depth).
func TestMQScalingExercisesConflicts(t *testing.T) {
	o := runMQCell(true, 8, 4, 4)
	if o["deferred"] == 0 {
		t.Fatalf("QD=8 NQ=4 reported no deferred conflicts; the hot-region writes must collide")
	}
}

// mqscaling output must be byte-identical at any shard worker count — the
// cells share no state, whatever order they run in.
func TestMQScalingDeterministicAcrossShardWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	serial := Format(Get("mqscaling")(true))
	for _, workers := range []int{1, 2, 4, 8} {
		got := RunParallel([]string{"mqscaling"}, true, workers)
		if len(got) != 1 {
			t.Fatalf("workers=%d: got %d results, want 1", workers, len(got))
		}
		if s := Format(got[0]); s != serial {
			t.Fatalf("workers=%d: output differs from serial\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serial, s)
		}
	}
}
