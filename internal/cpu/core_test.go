package cpu

import (
	"testing"

	"vrio/internal/sim"
	"vrio/internal/stats"
)

func TestCoreExecutesFIFO(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 0)
	var order []int
	c.Exec(NoOwner, KindBusy, 10, func() { order = append(order, 1) })
	c.Exec(NoOwner, KindBusy, 10, func() { order = append(order, 2) })
	c.Exec(NoOwner, KindBusy, 10, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("finished at %v, want 30", e.Now())
	}
	if c.Executed != 3 {
		t.Errorf("Executed = %d", c.Executed)
	}
}

func TestCoreQueueingDelay(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 0)
	c.Wait = &stats.Histogram{}
	var doneAt sim.Time
	c.Exec(NoOwner, KindBusy, 100, nil)
	e.At(10, func() {
		c.Exec(NoOwner, KindBusy, 5, func() { doneAt = e.Now() })
	})
	e.Run()
	// Second item waits until 100, runs 5 -> done at 105.
	if doneAt != 105 {
		t.Errorf("done at %v, want 105", doneAt)
	}
	if c.Waited != 1 {
		t.Errorf("Waited = %d, want 1", c.Waited)
	}
	if c.Wait.Max() != 90 || c.Wait.Count() != 2 {
		t.Errorf("wait max = %d over %d items, want 90 over 2", c.Wait.Max(), c.Wait.Count())
	}
}

func TestCoreContextSwitchCharging(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 7)
	c.Exec(1, KindBusy, 10, nil)
	c.Exec(1, KindBusy, 10, nil) // same owner: no CS
	c.Exec(2, KindBusy, 10, nil) // owner change: +7
	var end sim.Time
	c.Exec(NoOwner, KindBusy, 10, func() { end = e.Now() }) // NoOwner: no CS
	e.Run()
	if end != 47 {
		t.Errorf("end = %v, want 47 (one context switch)", end)
	}
	if cs := c.Accounted(KindCS); cs != 7 {
		t.Errorf("KindCS = %v, want 7", cs)
	}
}

func TestCoreAccountingByKind(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 0)
	c.Exec(NoOwner, KindBusy, 10, nil)
	c.Exec(NoOwner, KindIRQ, 20, nil)
	c.Exec(NoOwner, KindExit, 30, nil)
	e.Run()
	if c.Accounted(KindBusy) != 10 || c.Accounted(KindIRQ) != 20 || c.Accounted(KindExit) != 30 {
		t.Errorf("accounting: busy=%v irq=%v exit=%v",
			c.Accounted(KindBusy), c.Accounted(KindIRQ), c.Accounted(KindExit))
	}
	if c.BusyTime() != 60 {
		t.Errorf("BusyTime = %v, want 60", c.BusyTime())
	}
}

func TestCoreIdleVsPollAccounting(t *testing.T) {
	e := sim.NewEngine()
	normal := New(e, 0)
	poller := New(e, 0)
	poller.Polling = true
	e.At(100, func() {
		normal.Exec(NoOwner, KindBusy, 10, nil)
		poller.Exec(NoOwner, KindBusy, 10, nil)
	})
	e.Run()
	if normal.IdleTime() != 100 {
		t.Errorf("normal idle = %v, want 100", normal.IdleTime())
	}
	if normal.Accounted(KindPoll) != 0 {
		t.Error("non-polling core accrued poll time")
	}
	if poller.Accounted(KindPoll) != 100 {
		t.Errorf("poller poll = %v, want 100", poller.Accounted(KindPoll))
	}
	if poller.IdleTime() != 0 {
		t.Errorf("poller idle = %v, want 0", poller.IdleTime())
	}
}

func TestCoreUtilization(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 0)
	c.Exec(NoOwner, KindBusy, 50, nil)
	e.At(100, func() {})
	e.Run()
	if u := c.Utilization(); u != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", u)
	}
}

func TestCoreWaitFraction(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 0)
	c.Exec(NoOwner, KindBusy, 10, nil)
	c.Exec(NoOwner, KindBusy, 10, nil) // waits
	c.Exec(NoOwner, KindBusy, 10, nil) // waits
	e.Run()
	e.At(e.Now()+100, func() { c.Exec(NoOwner, KindBusy, 10, nil) }) // no wait
	e.Run()
	if wf := c.WaitFraction(); wf != 0.5 {
		t.Errorf("WaitFraction = %v, want 0.5", wf)
	}
}

func TestCoreNegativeDurationPanics(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 0)
	defer func() {
		if recover() == nil {
			t.Error("negative duration did not panic")
		}
	}()
	c.Exec(NoOwner, KindBusy, -1, nil)
}

func TestSamplerWindows(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 0)
	s := NewSampler(e, c, 100)
	// Busy exactly during the second window.
	e.At(100, func() { c.Exec(NoOwner, KindBusy, 100, nil) })
	e.RunUntil(300)
	if s.Series.Len() < 3 {
		t.Fatalf("samples = %d, want >= 3", s.Series.Len())
	}
	if v := s.Series.V[0]; v != 0 {
		t.Errorf("window 1 utilization = %v, want 0", v)
	}
	if v := s.Series.V[1]; v != 1 {
		t.Errorf("window 2 utilization = %v, want 1", v)
	}
	if v := s.Series.V[2]; v != 0 {
		t.Errorf("window 3 utilization = %v, want 0", v)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{KindBusy: "busy", KindIRQ: "irq", KindExit: "exit", KindCS: "cs", KindPoll: "poll"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown kind misprinted")
	}
}

// A saturated core's queue should grow and wait times stretch — the Elvis
// bottleneck scenario of §1.
func TestCoreSaturationBehaviour(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 0)
	// Offered load: one 10ns item every 5ns => 2x overload.
	for i := 0; i < 100; i++ {
		at := sim.Time(i * 5)
		e.At(at, func() { c.Exec(NoOwner, KindBusy, 10, nil) })
	}
	e.Run()
	if e.Now() != 100*10 {
		t.Errorf("drained at %v, want 1000 (fully serialized)", e.Now())
	}
	if c.WaitFraction() < 0.9 {
		t.Errorf("WaitFraction = %v, want near 1 under overload", c.WaitFraction())
	}
}

func TestCoreEnergyAccounting(t *testing.T) {
	e := sim.NewEngine()
	spin := New(e, 0)
	spin.Polling = true
	halt := New(e, 0)
	// Both busy 25% of a 100ns window.
	spin.Exec(NoOwner, KindBusy, 25, nil)
	halt.Exec(NoOwner, KindBusy, 25, nil)
	e.At(100, func() {})
	e.Run()
	// Spinning poller: 25 busy + 75 poll at full power.
	if got := spin.Energy(1.0, 1.0, 0.05); got != sim.Time(100).Seconds() {
		t.Errorf("spin energy = %v, want one full core", got)
	}
	// mwait-class poller: 25 + 0.3*75 = 47.5 ns of full-power burn.
	wantMwait := (25 + 0.3*75) * 1e-9
	if got := spin.Energy(1.0, 0.3, 0.05); got < wantMwait*0.999 || got > wantMwait*1.001 {
		t.Errorf("mwait energy = %v, want %v", got, wantMwait)
	}
	// Halted core: 25 busy + 75 idle at 5%.
	want := (25 + 0.05*75) * 1e-9
	if got := halt.Energy(1.0, 1.0, 0.05); got < want*0.999 || got > want*1.001 {
		t.Errorf("halted energy = %v, want %v", got, want)
	}
}

// TestCoreSaturatedQueueZeroAlloc holds a core busy without a break: every
// completion queues one more item, so the run queue stays three or four
// deep and never drains. Once warm, 100k further items must not allocate; a
// queue whose slice is reset only on draining grows for as long as the core
// stays busy.
func TestCoreSaturatedQueueZeroAlloc(t *testing.T) {
	const depth, items, d = 4, 100_000, 10
	e := sim.NewEngine()
	c := New(e, 0)
	var fn func()
	fn = func() { c.Exec(NoOwner, KindBusy, d, fn) }
	for i := 0; i < depth; i++ {
		c.Exec(NoOwner, KindBusy, d, fn)
	}
	run := func() { e.RunUntil(e.Now() + items*d) }
	run()
	// AllocsPerRun divides by the run count, so one run of 100k items
	// reports every allocation among them.
	if allocs := testing.AllocsPerRun(1, run); allocs != 0 {
		t.Errorf("%v allocs over %d items on a saturated core, want 0", allocs, items)
	}
	if c.QueueLen() > depth || !c.Busy() {
		t.Errorf("queue length %d, busy %v: the core must stay saturated", c.QueueLen(), c.Busy())
	}
	if c.Executed < 3*items {
		t.Errorf("executed %d items, want at least %d", c.Executed, 3*items)
	}
}
