package guestos

import (
	"testing"

	"vrio/internal/sim"
)

func TestSingleThreadRuns(t *testing.T) {
	e := sim.NewEngine()
	v := NewVCPU(e, 0, 0)
	th := v.Spawn("t0")
	var doneAt sim.Time
	th.Do(100, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 100 {
		t.Errorf("done at %v, want 100", doneAt)
	}
	if th.Completions != 1 {
		t.Errorf("Completions = %d", th.Completions)
	}
	if v.BusyTime != 100 {
		t.Errorf("BusyTime = %v", v.BusyTime)
	}
}

func TestThreadLoopViaCallback(t *testing.T) {
	e := sim.NewEngine()
	v := NewVCPU(e, 0, 0)
	th := v.Spawn("loop")
	iterations := 0
	var step func()
	step = func() {
		iterations++
		if iterations < 5 {
			// Simulate I/O latency, then wake and compute again.
			e.After(50, func() { th.Do(10, step) })
		}
	}
	th.Do(10, step)
	e.Run()
	if iterations != 5 {
		t.Errorf("iterations = %d", iterations)
	}
	// 5 computes of 10 + 4 waits of 50.
	if e.Now() != 5*10+4*50 {
		t.Errorf("finished at %v", e.Now())
	}
}

func TestTwoThreadsShareVCPU(t *testing.T) {
	e := sim.NewEngine()
	v := NewVCPU(e, 0, 0)
	a, b := v.Spawn("a"), v.Spawn("b")
	var aDone, bDone sim.Time
	a.Do(100, func() { aDone = e.Now() })
	b.Do(100, func() { bDone = e.Now() })
	e.Run()
	// b wakes while a runs at t=0; a has run 0 < any minGran... with
	// minGran 0 the wakeup preempts immediately but a keeps its place in
	// the queue; total still serializes to 200.
	if aDone+bDone != 300 || e.Now() != 200 {
		t.Errorf("aDone=%v bDone=%v end=%v", aDone, bDone, e.Now())
	}
	if v.Runnable() != 0 {
		t.Errorf("Runnable = %d at end", v.Runnable())
	}
}

func TestWakeupPreemptionAfterMinGranularity(t *testing.T) {
	e := sim.NewEngine()
	v := NewVCPU(e, 0, 10)
	long := v.Spawn("long")
	short := v.Spawn("short")
	var shortDone, longDone sim.Time
	long.Do(100, func() { longDone = e.Now() })
	// Wake "short" at t=50: long has run 50 >= 10, so it is preempted.
	e.At(50, func() { short.Do(5, func() { shortDone = e.Now() }) })
	e.Run()
	if shortDone != 55 {
		t.Errorf("short done at %v, want 55 (preempted long)", shortDone)
	}
	if longDone != 105 {
		t.Errorf("long done at %v, want 105 (resumed remainder)", longDone)
	}
	if v.InvoluntaryCS != 1 {
		t.Errorf("InvoluntaryCS = %d, want 1", v.InvoluntaryCS)
	}
}

func TestNoPreemptionBeforeMinGranularity(t *testing.T) {
	e := sim.NewEngine()
	v := NewVCPU(e, 0, 1000)
	long := v.Spawn("long")
	short := v.Spawn("short")
	var shortDone sim.Time
	long.Do(100, nil)
	e.At(50, func() { short.Do(5, func() { shortDone = e.Now() }) })
	e.Run()
	if shortDone != 105 {
		t.Errorf("short done at %v, want 105 (no preemption)", shortDone)
	}
	if v.InvoluntaryCS != 0 {
		t.Errorf("InvoluntaryCS = %d, want 0", v.InvoluntaryCS)
	}
	if v.VoluntaryCS != 1 {
		t.Errorf("VoluntaryCS = %d, want 1", v.VoluntaryCS)
	}
}

func TestContextSwitchCostCharged(t *testing.T) {
	e := sim.NewEngine()
	v := NewVCPU(e, 7, 0)
	a, b := v.Spawn("a"), v.Spawn("b")
	var bDone sim.Time
	a.Do(10, nil)
	b.Do(10, func() { bDone = e.Now() })
	e.Run()
	// a runs 0..10 (preempt attempt at t=0: a has run 0 >= minGran 0 →
	// preempted immediately; but switching a->b costs 7).
	if v.CSTime == 0 {
		t.Error("no context-switch time charged")
	}
	if bDone == 20 {
		t.Error("context-switch cost did not stretch completion")
	}
}

func TestSameThreadNoSwitchCost(t *testing.T) {
	e := sim.NewEngine()
	v := NewVCPU(e, 7, 0)
	a := v.Spawn("a")
	a.Do(10, func() { a.Do(10, nil) })
	e.Run()
	if v.CSTime != 0 {
		t.Errorf("CSTime = %v for a single thread", v.CSTime)
	}
	if e.Now() != 20 {
		t.Errorf("end = %v, want 20", e.Now())
	}
}

func TestDoOnRunningThreadPanics(t *testing.T) {
	e := sim.NewEngine()
	v := NewVCPU(e, 0, 0)
	a := v.Spawn("a")
	a.Do(10, nil)
	defer func() {
		if recover() == nil {
			t.Error("Do on ready thread did not panic")
		}
	}()
	a.Do(10, nil)
}

func TestNegativeComputePanics(t *testing.T) {
	e := sim.NewEngine()
	v := NewVCPU(e, 0, 0)
	a := v.Spawn("a")
	defer func() {
		if recover() == nil {
			t.Error("negative compute did not panic")
		}
	}()
	a.Do(-1, nil)
}

func TestUtilization(t *testing.T) {
	e := sim.NewEngine()
	v := NewVCPU(e, 0, 0)
	a := v.Spawn("a")
	a.Do(50, nil)
	e.At(100, func() {})
	e.Run()
	if u := float64(v.BusyTime+v.CSTime) / float64(e.Now()); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

// The Figure 14 mechanism: with identical threads doing compute+I/O loops,
// a low-latency backend causes far more involuntary context switches than a
// high-latency one.
func TestFastIOCausesMoreInvoluntarySwitches(t *testing.T) {
	run := func(ioLatency sim.Time) (uint64, uint64) {
		e := sim.NewEngine()
		rng := sim.NewRNG(7)
		v := NewVCPU(e, 1500, 4000)
		const compute = 5500
		for i := 0; i < 4; i++ {
			th := v.Spawn("worker")
			var loop func()
			loop = func() {
				// Jitter both phases ±20% as a real workload would.
				wait := rng.Range(ioLatency*8/10, ioLatency*12/10)
				e.After(wait, func() {
					th.Do(rng.Range(compute*8/10, compute*12/10), loop)
				})
			}
			th.Do(rng.Range(compute*8/10, compute*12/10), loop)
		}
		e.RunUntil(50 * sim.Millisecond)
		e.Stop()
		return v.InvoluntaryCS, v.VoluntaryCS
	}
	fastInv, _ := run(8 * sim.Microsecond)   // Elvis-like local ramdisk
	slowInv, _ := run(100 * sim.Microsecond) // vRIO-like remote path
	if fastInv <= slowInv*3 {
		t.Errorf("fast backend should cause far more involuntary switches: fast=%d slow=%d",
			fastInv, slowInv)
	}
}
