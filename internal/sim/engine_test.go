package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.At(at, func() { order = append(order, at) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
}

func TestEngineFIFOTieBreakAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of FIFO order: %v", order)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		if e.Now() != 10 {
			t.Errorf("Now() = %v inside event at 10", e.Now())
		}
		e.After(5, func() {
			if e.Now() != 15 {
				t.Errorf("Now() = %v, want 15", e.Now())
			}
		})
	})
	e.Run()
	if e.Now() != 15 {
		t.Errorf("final Now() = %v, want 15", e.Now())
	}
	if e.Executed() != 2 {
		t.Errorf("Executed() = %d, want 2", e.Executed())
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNilEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil event did not panic")
		}
	}()
	e.At(0, nil)
}

func TestEngineRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Errorf("ran %d events by deadline 20, want 2", ran)
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %v after RunUntil(20), want 20", e.Now())
	}
	e.RunUntil(100)
	if ran != 3 {
		t.Errorf("ran %d events total, want 3", ran)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++; e.Stop() })
	e.At(20, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Errorf("ran %d events, want 1 (Stop should halt)", ran)
	}
	// Run can resume afterwards.
	e.Run()
	if ran != 2 {
		t.Errorf("ran %d events after resume, want 2", ran)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.At(10, func() { ran = true })
	e.Cancel(id)
	e.Run()
	if ran {
		t.Error("cancelled event still ran")
	}
	// Double cancel is a no-op.
	e.Cancel(id)
}

func TestEngineCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.At(20, func() { ran = true })
	e.At(10, func() { e.Cancel(id) })
	e.Run()
	if ran {
		t.Error("event cancelled at t=10 still ran at t=20")
	}
}

func TestEngineTicker(t *testing.T) {
	e := NewEngine()
	ticks := 0
	var stop func()
	stop = e.Ticker(10, func() {
		ticks++
		if ticks == 5 {
			stop()
		}
	})
	e.RunUntil(1000)
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if e.Pending() != 0 {
		// One dead event may remain scheduled but must not tick.
		e.Run()
		if ticks != 5 {
			t.Errorf("ticker ticked after stop: %d", ticks)
		}
	}
}

// A running ticker reschedules one bound callback: 0 allocs per tick.
func TestEngineTickerZeroAllocPerTick(t *testing.T) {
	e := NewEngine()
	ticks := 0
	stop := e.Ticker(10*Microsecond, func() { ticks++ })
	defer stop()
	e.RunUntil(100 * Microsecond) // warm-up: the event pool
	allocs := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 10*Microsecond) })
	if allocs != 0 {
		t.Errorf("ticker: %.1f allocs per tick, want 0", allocs)
	}
	if want := 10 + 101; ticks != want {
		t.Errorf("ticks = %d, want %d", ticks, want)
	}
}

// After warm-up the engine schedules into the wheel and the overflow,
// migrates overflow events into the wheel as the clock nears them, runs,
// cancels and compacts without allocating.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	ids := make([]EventID, 0, 120)
	compactions := 0
	round := func() {
		for i := 0; i < 40; i++ {
			e.After(Time(i*97), fn) // wheel
		}
		for i := 0; i < 8; i++ {
			e.After(200*Microsecond+Time(i)*Microsecond, fn) // overflow, then migrated
		}
		ids = ids[:0]
		for i := 0; i < 120; i++ {
			ids = append(ids, e.After(Millisecond+Time(i), fn)) // overflow
		}
		for _, id := range ids {
			e.Cancel(id) // past half the queue dead: compaction
		}
		if e.tombstones < len(ids) {
			compactions++
		}
		e.RunUntil(e.Now() + 300*Microsecond)
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("engine steady state: %.1f allocs per round, want 0", allocs)
	}
	if compactions == 0 {
		t.Error("no round compacted; the guard does not cover compaction")
	}
	if e.Executed() != 102*48 { // AllocsPerRun adds a warm-up call
		t.Errorf("executed %d events, want %d", e.Executed(), 102*48)
	}
}

func TestEngineTickerPeriodValidation(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("non-positive ticker period did not panic")
		}
	}()
	e.Ticker(0, func() {})
}

func TestEnginePendingCount(t *testing.T) {
	e := NewEngine()
	a := e.At(10, func() {})
	e.At(20, func() {})
	if got := e.Pending(); got != 2 {
		t.Errorf("Pending() = %d, want 2", got)
	}
	e.Cancel(a)
	if got := e.Pending(); got != 1 {
		t.Errorf("Pending() after cancel = %d, want 1", got)
	}
}

// A stale EventID — one whose event already ran and whose struct has been
// recycled for a new event — must not cancel the new incarnation.
func TestEngineStaleCancelDoesNotHitRecycledEvent(t *testing.T) {
	e := NewEngine()
	var stale EventID
	stale = e.At(10, func() {})
	e.Run() // runs and recycles the event struct
	ran := false
	fresh := e.At(20, func() { ran = true }) // reuses the pooled struct
	if fresh.ev != stale.ev {
		t.Skip("free list did not reuse the struct; nothing to test")
	}
	e.Cancel(stale) // must be a no-op: generation differs
	e.Run()
	if !ran {
		t.Error("stale Cancel killed a recycled event")
	}
}

// Cancelling most of a large queue triggers compaction; the survivors must
// still run, in order, exactly once.
func TestEngineCancelHeavyCompaction(t *testing.T) {
	e := NewEngine()
	const n = 1000
	var ids []EventID
	var got []Time
	for i := 0; i < n; i++ {
		at := Time(10 + i)
		ids = append(ids, e.At(at, func() { got = append(got, at) }))
	}
	// Cancel all but every 10th event.
	for i, id := range ids {
		if i%10 != 0 {
			e.Cancel(id)
		}
	}
	if want := n / 10; e.Pending() != want {
		t.Fatalf("Pending() = %d after cancels, want %d", e.Pending(), want)
	}
	e.Run()
	if len(got) != n/10 {
		t.Fatalf("ran %d events, want %d", len(got), n/10)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order after compaction: %v then %v", got[i-1], got[i])
		}
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after drain, want 0", e.Pending())
	}
}

// Pending must track schedule, cancel, and execution, including cancels of
// already-cancelled and already-run events (no double decrement).
func TestEnginePendingLiveCounter(t *testing.T) {
	e := NewEngine()
	a := e.At(10, func() {})
	b := e.At(20, func() {})
	_ = b
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Cancel(a)
	e.Cancel(a) // double cancel: no second decrement
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after double cancel, want 1", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after run, want 0", e.Pending())
	}
	e.Cancel(b) // cancel after execution: no underflow
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after post-run cancel, want 0", e.Pending())
	}
}

// Property: however events are scheduled, they execute in nondecreasing time
// order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var got []Time
		for _, ti := range times {
			at := Time(ti)
			e.At(at, func() { got = append(got, at) })
		}
		e.Run()
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{12500, "12.50µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.0000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Microsecond).Seconds(); got != 0.0015 {
		t.Errorf("Seconds() = %v, want 0.0015", got)
	}
}
