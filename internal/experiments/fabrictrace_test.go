package experiments

import (
	"bytes"
	"strings"
	"testing"

	"vrio/internal/sim"
	"vrio/internal/trace"
)

// testFabricTrace runs the fabrictrace scenario with short test durations.
func testFabricTrace(t *testing.T, workers, failRack int) FabricTraceResult {
	t.Helper()
	res, err := fabricTraceRun(7, sim.Millisecond/2, sim.Millisecond, 3*sim.Millisecond, workers, failRack)
	if err != nil {
		t.Fatalf("fabricTraceRun: %v", err)
	}
	return res
}

// TestFabricTraceByteIdenticalAcrossWorkers is the observability sibling of
// cluster's TestFabricShardedMatchesSerialByteIdentical: the merged span
// export, the rollup metrics stream, and the anomaly dump stream must be
// byte-identical no matter how many workers execute the shards.
func TestFabricTraceByteIdenticalAcrossWorkers(t *testing.T) {
	serial := testFabricTrace(t, 1, -1)
	if len(serial.Spans) == 0 {
		t.Fatal("serial run exported no spans")
	}
	if len(serial.Metrics) == 0 {
		t.Fatal("serial run exported no metrics rows")
	}
	for _, w := range []int{2, 4, 8} {
		sharded := testFabricTrace(t, w, -1)
		if !bytes.Equal(serial.Spans, sharded.Spans) {
			t.Errorf("span export diverged between workers=1 and workers=%d", w)
		}
		if !bytes.Equal(serial.Metrics, sharded.Metrics) {
			t.Errorf("metrics stream diverged between workers=1 and workers=%d", w)
		}
		if !bytes.Equal(serial.Anomalies, sharded.Anomalies) {
			t.Errorf("anomaly stream diverged between workers=1 and workers=%d", w)
		}
	}
}

// TestFabricTraceProbeCoversEveryHop pins the acceptance criterion: one
// cross-rack request yields a merged flow whose first leg walks guest ring →
// egress IOhyp worker → ToR uplink → spine downlink (delivery into the
// remote ToR) → remote IOhyp worker → completion, in time order.
func TestFabricTraceProbeCoversEveryHop(t *testing.T) {
	res := testFabricTrace(t, 2, -1)
	leg := requestHops(res.Hops)
	want := []struct {
		cat  trace.Category
		name string
	}{
		{trace.CatGuestRing, "net-tx"},
		{trace.CatWorker, "net-tx"},
		{trace.CatFabric, "tor0-"},
		{trace.CatFabric, "-tor1"},
		{trace.CatWorker, "net-in"},
		{trace.CatCompletion, "net-rx"},
	}
	if len(leg) != len(want) {
		t.Fatalf("probe request leg has %d hops, want %d: %+v", len(leg), len(want), leg)
	}
	for i, w := range want {
		h := leg[i]
		if h.Cat != w.cat || !strings.Contains(h.Name, w.name) {
			t.Errorf("hop %d = %s %q, want cat %s name containing %q", i, h.Cat, h.Name, w.cat, w.name)
		}
		if i > 0 && h.Start < leg[i-1].Start {
			t.Errorf("hop %d starts at %v, before hop %d at %v", i, h.Start, i-1, leg[i-1].Start)
		}
	}
	// The request's spans come from both sides of the fabric: the sender's
	// shard (0), the spine shard, and the receiver's shard (1).
	shards := map[int]bool{}
	for _, h := range leg {
		shards[h.Shard] = true
	}
	if len(shards) < 3 {
		t.Errorf("probe leg spans %d shards, want >= 3 (sender, spine, receiver)", len(shards))
	}
}

// TestFabricTraceFlightDumpOnDarkRack kills a rack's IOhosts mid-run and
// expects the rollup to dump that shard's flight recorder for both the
// heartbeat-miss and dark-rack triggers, with the controller's detect and
// rack_dark events visible in the dumped ring.
func TestFabricTraceFlightDumpOnDarkRack(t *testing.T) {
	res := testFabricTrace(t, 2, 1)
	if len(res.Dumps) == 0 {
		t.Fatal("no anomaly dumps after killing rack 1's IOhosts")
	}
	triggers := map[string]bool{}
	for _, d := range res.Dumps {
		if d.Shard != 1 {
			t.Errorf("dump for trigger %q on shard %d, want shard 1", d.Trigger, d.Shard)
		}
		triggers[d.Trigger] = true
	}
	for _, want := range []string{"hb_miss", "dark_rack"} {
		if !triggers[want] {
			t.Errorf("missing %q dump; got %v", want, triggers)
		}
	}
	var sawRackDark bool
	for _, d := range res.Dumps {
		for _, e := range d.Entries {
			if e.Kind == "rack_event" && e.Name == "rack_dark" {
				sawRackDark = true
			}
		}
	}
	if !sawRackDark {
		t.Error("no rack_dark control-plane event in any dumped flight ring")
	}
}
