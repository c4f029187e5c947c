package sim

import "testing"

// TestEngineClockMatchesAfter pins the byte-identical contract of the Clock
// abstraction: driving an engine through the Clock interface produces
// exactly the schedule that direct After/Cancel calls produce.
func TestEngineClockMatchesAfter(t *testing.T) {
	run := func(use func(e *Engine, d Time, fn func()) func()) []Time {
		e := NewEngine()
		var fired []Time
		var rec func(depth int) func()
		rec = func(depth int) func() {
			return func() {
				fired = append(fired, e.Now())
				if depth > 0 {
					cancelA := use(e, 5, rec(depth-1))
					use(e, 3, rec(depth-1))
					cancelA()
				}
			}
		}
		use(e, 10, rec(3))
		e.Run()
		return fired
	}

	direct := run(func(e *Engine, d Time, fn func()) func() {
		id := e.After(d, fn)
		return func() { e.Cancel(id) }
	})
	var clk Clock
	viaClock := run(func(e *Engine, d Time, fn func()) func() {
		clk = e
		id := clk.AfterFunc(d, fn)
		return func() { clk.CancelTimer(id) }
	})

	if len(direct) == 0 || len(direct) != len(viaClock) {
		t.Fatalf("fired %d direct vs %d via clock", len(direct), len(viaClock))
	}
	for i := range direct {
		if direct[i] != viaClock[i] {
			t.Fatalf("event %d fired at %v direct, %v via clock", i, direct[i], viaClock[i])
		}
	}
}

// TestEngineCancelTimerStopsExternal checks that an external handle routed
// to an engine by mistake is stopped, not leaked.
func TestEngineCancelTimerStopsExternal(t *testing.T) {
	e := NewEngine()
	ft := &fakeTimer{}
	e.CancelTimer(ExternalTimerID(ft))
	if !ft.stopped {
		t.Fatal("external timer was not stopped")
	}
}

type fakeTimer struct{ stopped bool }

func (f *fakeTimer) Stop() bool { f.stopped = true; return true }

// TestEngineInterrupt checks that Interrupt stops a run at an event
// boundary, leaves the queue intact, and stays sticky.
func TestEngineInterrupt(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 0; i < 1000; i++ {
		e.After(Time(i+1), func() {
			ran++
			if ran == 300 {
				e.Interrupt()
			}
		})
	}
	e.Run()
	if ran >= 1000 {
		t.Fatal("interrupt did not stop the run")
	}
	if !e.Interrupted() {
		t.Fatal("Interrupted() false after Interrupt")
	}
	before := ran
	e.Run() // sticky: returns immediately
	if ran != before {
		t.Fatalf("sticky interrupt still ran %d events", ran-before)
	}
}

// TestShardGroupInterrupt checks the group stops at a window barrier.
func TestShardGroupInterrupt(t *testing.T) {
	g := NewShardGroup(100, 0)
	a := g.AddShard()
	g.AddShard()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		a.Eng.After(100, tick)
	}
	a.Eng.After(100, tick)
	g.RunUntil(10_000, 1)
	if ticks == 0 {
		t.Fatal("no ticks")
	}
	g.Interrupt()
	before := ticks
	g.RunUntil(1_000_000, 1)
	if ticks != before {
		t.Fatalf("interrupted group still ran %d windows", ticks-before)
	}
}
