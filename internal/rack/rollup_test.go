package rack

import (
	"bytes"
	"strings"
	"testing"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// rollupRun builds the 2-rack fabric with intra-rack RR load on every guest,
// samples the rollup every sim-millisecond, and returns the exported metrics
// stream, the vrio-top summary, and the rollup itself for anomaly checks.
// dark kills both of rack 0's IOhosts mid-run.
func rollupRun(t *testing.T, workers int, dark bool) ([]byte, string, *Rollup) {
	t.Helper()
	f, err := cluster.BuildFabric(cluster.FabricSpec{
		Rack: cluster.Spec{
			Model: core.ModelVRIO, VMHosts: 1, VMsPerHost: 2,
			NumIOhosts: 2, StationPerVM: true, NoJitter: true, Seed: 11,
		},
		NumRacks: 2,
	})
	if err != nil {
		t.Fatalf("BuildFabric: %v", err)
	}
	defer f.Close()
	d := NewDatacenter(f, Config{HeartbeatInterval: sim.Millisecond / 2})
	ru := NewRollup(d, RollupConfig{Interval: sim.Millisecond})
	perRack := make([][]*workload.Results, len(f.Racks))
	for r, tb := range f.Racks {
		perRack[r] = tb.StartEach(tb.StartRR)
		for _, res := range perRack[r] {
			ru.ObserveLatency(r, false, &res.Latency)
		}
	}
	d.Start()
	ru.Start()
	if dark {
		f.Racks[0].Eng.At(4*sim.Millisecond, func() {
			f.Racks[0].IOHyps[0].Fail()
			f.Racks[0].IOHyps[1].Fail()
		})
	}
	f.RunMeasured(sim.Millisecond, 19*sim.Millisecond, workers, perRack)
	ru.Stop()
	d.Stop()
	var buf bytes.Buffer
	if err := ru.WriteMetricsJSONL(&buf); err != nil {
		t.Fatalf("WriteMetricsJSONL: %v", err)
	}
	return buf.Bytes(), ru.Summary(), ru
}

// TestRollupMetricsDeterministicAcrossWorkers: the snapshot stream and the
// summary table are byte-identical whether the two rack shards run on one
// worker or two — each tick reads only its own shard's gauges and the
// exporter fixes rack order, so thread scheduling can never reorder rows.
func TestRollupMetricsDeterministicAcrossWorkers(t *testing.T) {
	m1, s1, _ := rollupRun(t, 1, false)
	if len(m1) == 0 {
		t.Fatal("rollup exported no metrics rows")
	}
	for _, col := range []string{"rack", "alive", "util%", "no_route", "ecmp", "slo_burn"} {
		if !strings.Contains(s1, col) {
			t.Errorf("summary missing %q column:\n%s", col, s1)
		}
	}
	m2, s2, ru := rollupRun(t, 2, false)
	if !bytes.Equal(m1, m2) {
		t.Error("metrics stream diverged between 1 and 2 workers")
	}
	if s1 != s2 {
		t.Errorf("summary diverged between 1 and 2 workers:\n%s\nvs\n%s", s1, s2)
	}
	if dumps := ru.Anomalies(); len(dumps) != 0 {
		t.Errorf("healthy run produced %d anomaly dumps: %+v", len(dumps), dumps)
	}
}

// TestRollupDumpsFlightRecorderOnDarkRack: darkening rack 0 makes the
// rollup dump that shard's flight ring for both the heartbeat-miss and
// dark-rack triggers — once each, on the failed shard only.
func TestRollupDumpsFlightRecorderOnDarkRack(t *testing.T) {
	_, _, ru := rollupRun(t, 2, true)
	dumps := ru.Anomalies()
	if len(dumps) == 0 {
		t.Fatal("no anomaly dumps after darkening rack 0")
	}
	triggers := map[string]int{}
	for _, d := range dumps {
		if d.Shard != 0 {
			t.Errorf("dump %q on shard %d, want 0", d.Trigger, d.Shard)
		}
		if len(d.Entries) == 0 {
			t.Errorf("dump %q carries an empty flight ring", d.Trigger)
		}
		triggers[d.Trigger]++
	}
	for _, want := range []string{"hb_miss", "dark_rack"} {
		if triggers[want] != 1 {
			t.Errorf("trigger %q dumped %d times, want once; got %v", want, triggers[want], triggers)
		}
	}
}
