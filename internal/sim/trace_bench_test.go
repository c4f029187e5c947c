// External test package: trace imports sim, so benchmarking the two
// together must live outside package sim.
package sim_test

import (
	"testing"

	"vrio/internal/sim"
	"vrio/internal/trace"
)

// BenchmarkTraceDisabled is BenchmarkEngineSchedule with a disabled-tracer
// instrumentation block in the loop — the exact pattern the transport driver
// and IOhyp workers run per event. The contract (see package trace): with
// tracing off this must cost ~0 ns and 0 allocs over the bare schedule path.
// Compare against BenchmarkEngineSchedule in this directory.
func BenchmarkTraceDisabled(b *testing.B) {
	var tr *trace.Tracer // nil: the disabled tracer
	e := sim.NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Enabled() {
			id := tr.BeginArg(trace.CatWorker, "bench", 0, uint64(i))
			tr.End(id)
		}
		e.After(1, fn)
		e.RunUntil(e.Now() + 1)
	}
}

// BenchmarkTraceEnabled is the same loop with a live tracer, for comparison:
// this is what turning -trace on costs per instrumented event.
func BenchmarkTraceEnabled(b *testing.B) {
	e := sim.NewEngine()
	tr := trace.New(e)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Enabled() {
			id := tr.BeginArg(trace.CatWorker, "bench", 0, uint64(i))
			tr.End(id)
		}
		e.After(1, fn)
		e.RunUntil(e.Now() + 1)
	}
}

// TestTraceDisabledZeroAllocOnSchedulePath enforces the benchmark's claim in
// a plain test so `go test` (not just benchmarking) catches a regression.
func TestTraceDisabledZeroAllocOnSchedulePath(t *testing.T) {
	var tr *trace.Tracer
	e := sim.NewEngine()
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			id := tr.BeginArg(trace.CatWorker, "x", 0, 0)
			tr.End(id)
		}
		e.After(1, fn)
		e.RunUntil(e.Now() + 1)
	})
	if allocs != 0 {
		t.Errorf("disabled-tracer schedule path allocates %.1f/op, want 0", allocs)
	}
}

// shardGroupWindowStep is one steady-state sharded datapath step: a
// disabled-tracer guard (the pattern every instrumented component runs per
// event), one pooled event per shard, and one synchronization window. Shared
// by the zero-alloc test and the fabric-trace-overhead benchmarks.
func shardGroupWindowStep(g *sim.ShardGroup, tr *trace.Tracer, fn func(), deadline *sim.Time) {
	if tr.Enabled() {
		id := tr.BeginArg(trace.CatWorker, "x", 0, 0)
		tr.End(id)
	}
	for _, s := range g.Shards() {
		s.Eng.After(1, fn)
	}
	*deadline += 100
	g.RunUntil(*deadline, 1)
}

// TestTraceDisabledZeroAllocOnShardGroupRunPath extends the zero-alloc
// contract to the sharded fabric datapath: scheduling pooled events on every
// shard and running the group's synchronization windows with tracing
// disabled must not allocate. This is the -racks > 1 equivalent of the
// single-engine schedule-path test above.
func TestTraceDisabledZeroAllocOnShardGroupRunPath(t *testing.T) {
	var tr *trace.Tracer
	g := sim.NewShardGroup(100, 0)
	g.AddShard()
	g.AddShard()
	fn := func() {}
	var deadline sim.Time
	// Warm the engines' event pools and heaps before counting.
	for i := 0; i < 100; i++ {
		shardGroupWindowStep(g, tr, fn, &deadline)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		shardGroupWindowStep(g, tr, fn, &deadline)
	})
	if allocs != 0 {
		t.Errorf("disabled-tracer shard-group run path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkShardGroupBare times the sharded window step without any tracer
// guard; BenchmarkShardGroupTraceDisabled adds the disabled-tracer guard.
// Their delta is the cost the observability plane adds to the sharded
// datapath when nobody asked for a trace, which must be noise.
func BenchmarkShardGroupBare(b *testing.B) {
	g := sim.NewShardGroup(100, 0)
	g.AddShard()
	g.AddShard()
	fn := func() {}
	var deadline sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range g.Shards() {
			s.Eng.After(1, fn)
		}
		deadline += 100
		g.RunUntil(deadline, 1)
	}
}

func BenchmarkShardGroupTraceDisabled(b *testing.B) {
	var tr *trace.Tracer
	g := sim.NewShardGroup(100, 0)
	g.AddShard()
	g.AddShard()
	fn := func() {}
	var deadline sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shardGroupWindowStep(g, tr, fn, &deadline)
	}
}
