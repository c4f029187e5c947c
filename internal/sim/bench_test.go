package sim

import (
	"math"
	"testing"
)

// BenchmarkEngineSchedule measures the engine's hottest path: schedule one
// event and run it. This is the cost every simulated packet, interrupt, and
// timer pays at least once.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.RunUntil(e.Now() + 1)
	}
}

// BenchmarkEngineScheduleDepth measures schedule+pop with a standing queue
// of 1024 events, which is where heap arity and comparison cost show up.
func BenchmarkEngineScheduleDepth(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.At(Time(1_000_000+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.RunUntil(e.Now() + 1)
	}
}

// BenchmarkEngineCancel measures the schedule-then-cancel pattern used by
// every retransmission timer and interrupt-coalescing timeout in the repo.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.At(Time(1_000_000+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.After(1000, fn)
		e.Cancel(id)
	}
}

// BenchmarkEnginePending measures the queue-depth probe that pollers and
// schedulers call while deciding whether to spin.
func BenchmarkEnginePending(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.At(Time(1_000_000+i), fn)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = e.Pending()
	}
	_ = n
}

// netRRDelays is a deterministic table of scheduling delays shaped like the
// net-rr workload's: the 14 most frequent delays of the vRIO testbed (8 VMs,
// 60 ms), weighted per mille as measured and renormalised; together they
// carry 86% of its pushes. farShare of the draws are instead long timers,
// log-uniform over 0.1-10 ms, beyond the wheel's horizon.
func netRRDelays(n int, farShare float64) []Time {
	near := [...]struct {
		d Time
		w int
	}{
		{600, 277}, {1200, 123}, {493, 62}, {4000, 62}, {477, 61}, {460, 61},
		{2500, 31}, {3400, 31}, {3200, 31}, {6400, 31}, {3222, 31}, {2029, 31},
		{2600, 31}, {40, 1},
	}
	total := 0
	for _, x := range near {
		total += x.w
	}
	rng := NewRNG(0x6e65_7472_72)
	out := make([]Time, n)
	for i := range out {
		if rng.Bool(farShare) {
			out[i] = Time(100_000 * math.Pow(100, rng.Float64()))
			continue
		}
		k := rng.Intn(total)
		for _, x := range near {
			if k -= x.w; k < 0 {
				out[i] = x.d
				break
			}
		}
	}
	return out
}

// BenchmarkEngineMixedDelays is the engine as net-rr drives it: 25 standing
// events, each rescheduling itself when it runs, with delays drawn from the
// net-rr mix plus 1% long timers (0.1-10 ms) that park beyond the wheel's
// horizon and migrate back in as the clock reaches them. One op is one
// event popped, run and its successor scheduled.
func BenchmarkEngineMixedDelays(b *testing.B) {
	e := NewEngine()
	delays := netRRDelays(1<<14, 0.01)
	i, left := 0, 0
	var fn func()
	fn = func() {
		e.After(delays[i&(len(delays)-1)], fn)
		i++
		if left--; left == 0 {
			e.Stop()
		}
	}
	for k := 0; k < 25; k++ {
		e.After(delays[k], fn)
	}
	left = 1 << 16 // warm-up: reach the steady-state near/far split
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	left = b.N
	e.Run()
}

// BenchmarkEngineCancelTimers is the retransmit-timer pattern: each request
// arms a 1 ms timeout (beyond the wheel's horizon), its reply arrives 600 ns
// later and cancels it. Tombstones pile up in the overflow and compaction
// reclaims them; 16 standing long timers keep the queue realistic.
func BenchmarkEngineCancelTimers(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for k := 0; k < 16; k++ {
		e.After(Time(200_000+k*50_000), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		id := e.After(Millisecond, fn)
		e.After(600, fn)
		e.RunUntil(e.Now() + 600)
		e.Cancel(id)
	}
}
