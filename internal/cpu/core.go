// Package cpu models processor cores: FIFO execution of timed work items,
// context-switch penalties, and busy/poll/idle accounting. Sidecores are
// ordinary cores whose idle time is charged to polling (the sidecore
// drawback of §1: "100% of the sidecore's cycles are consumed").
package cpu

import (
	"fmt"

	"vrio/internal/sim"
	"vrio/internal/stats"
)

// Kind classifies core time for the utilization breakdowns of Figure 15.
type Kind int

// Work kinds.
const (
	// KindBusy is useful work (request processing, guest computation).
	KindBusy Kind = iota
	// KindIRQ is interrupt handling.
	KindIRQ
	// KindExit is guest-exit handling (trap-and-emulate overhead).
	KindExit
	// KindCS is context-switch overhead.
	KindCS
	// KindPoll is wasted polling (an idle sidecore still burns cycles).
	KindPoll
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBusy:
		return "busy"
	case KindIRQ:
		return "irq"
	case KindExit:
		return "exit"
	case KindCS:
		return "cs"
	case KindPoll:
		return "poll"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NoOwner marks work with no owning context (no context-switch charging).
const NoOwner = -1

// Core is one processor core. Work items run FIFO; a work item's callback
// fires when the item *finishes*. Not safe for concurrent use (the
// simulation is single-threaded).
type Core struct {
	eng *sim.Engine

	// Polling marks this core as a dedicated poller: its idle time is
	// accounted as KindPoll (burned) rather than idle.
	Polling bool

	csCost sim.Time

	// queue is a head-indexed FIFO: qHead is the consumed prefix. It is
	// sim.FIFO's algorithm written out for work: the slice is reset when it
	// drains, and a push into a full slice first slides the live items
	// down, so the queue of a core that never idles stays bounded and
	// steady-state execution does not allocate. (The generic sim.FIFO costs
	// a few ns more per item, and cores run every work item of the
	// simulation.) cur/finish replace the per-item completion closure: only
	// one item runs at a time, so the prebound finish callback reads cur.
	queue   []work
	qHead   int
	cur     work
	finish  func()
	running bool

	acct      [numKinds]sim.Time
	idleSince sim.Time
	idleTotal sim.Time
	lastOwner int

	// OnIdle, if set, runs whenever the work queue drains (the core
	// transitions busy -> idle). Pollers use it to look for new ring work.
	OnIdle func()

	// Wait, if set, records each item's queueing delay (time from Exec to
	// dispatch); nil records nothing. The testbed attaches one to each
	// sidecore, the one wait distribution it exports. Figure 8's contention
	// series reads WaitFraction, not this.
	Wait *stats.Histogram
	// Executed counts completed work items; Waited counts items that found
	// the core busy on arrival.
	Executed uint64
	Waited   uint64
}

type work struct {
	d     sim.Time
	kind  Kind
	owner int
	enq   sim.Time
	fn    func()
}

// New returns an idle core.
func New(eng *sim.Engine, csCost sim.Time) *Core {
	c := &Core{eng: eng, csCost: csCost, lastOwner: NoOwner}
	c.finish = func() {
		c.Executed++
		if c.cur.fn != nil {
			c.cur.fn()
		}
		c.runNext()
	}
	return c
}

// QueueLen reports items waiting behind the current one.
func (c *Core) QueueLen() int { return len(c.queue) - c.qHead }

// Busy reports whether the core is executing.
func (c *Core) Busy() bool { return c.running }

// Exec schedules d nanoseconds of work of the given kind on behalf of
// owner; fn (optional) runs at completion. Work from a different owner than
// the previous item pays the context-switch cost first.
func (c *Core) Exec(owner int, kind Kind, d sim.Time, fn func()) {
	if d < 0 {
		panic("cpu: negative work duration")
	}
	if c.running {
		c.Waited++
	}
	if len(c.queue) == cap(c.queue) && c.qHead > 0 {
		n := copy(c.queue, c.queue[c.qHead:])
		clear(c.queue[n:]) // drop references for the collector
		c.queue = c.queue[:n]
		c.qHead = 0
	}
	c.queue = append(c.queue, work{d: d, kind: kind, owner: owner, enq: c.eng.Now(), fn: fn})
	if !c.running {
		c.accountIdleUpTo(c.eng.Now())
		c.running = true
		c.runNext()
	}
}

func (c *Core) runNext() {
	if c.qHead == len(c.queue) {
		c.queue = c.queue[:0]
		c.qHead = 0
		c.running = false
		c.idleSince = c.eng.Now()
		if c.OnIdle != nil {
			c.OnIdle()
		}
		return
	}
	w := c.queue[c.qHead]
	c.queue[c.qHead] = work{}
	c.qHead++
	if c.Wait != nil {
		c.Wait.Record(int64(c.eng.Now() - w.enq))
	}

	total := w.d
	if w.owner != NoOwner && c.lastOwner != NoOwner && w.owner != c.lastOwner && c.csCost > 0 {
		total += c.csCost
		c.acct[KindCS] += c.csCost
	}
	if w.owner != NoOwner {
		c.lastOwner = w.owner
	}
	c.acct[w.kind] += w.d
	c.cur = w
	c.eng.After(total, c.finish)
}

func (c *Core) accountIdleUpTo(t sim.Time) {
	if idle := t - c.idleSince; idle > 0 {
		if c.Polling {
			c.acct[KindPoll] += idle
		} else {
			c.idleTotal += idle
		}
	}
	c.idleSince = t
}

// Accounted reports cumulative time of a kind. For KindPoll on a polling
// core this includes idle time up to now.
func (c *Core) Accounted(kind Kind) sim.Time {
	if kind == KindPoll && !c.running {
		c.accountIdleUpTo(c.eng.Now())
	}
	return c.acct[kind]
}

// BusyTime reports all non-idle, non-poll time (useful + overhead).
func (c *Core) BusyTime() sim.Time {
	return c.acct[KindBusy] + c.acct[KindIRQ] + c.acct[KindExit] + c.acct[KindCS]
}

// IdleTime reports true idle time (always 0 for a polling core).
func (c *Core) IdleTime() sim.Time {
	if !c.running {
		c.accountIdleUpTo(c.eng.Now())
	}
	return c.idleTotal
}

// Utilization reports BusyTime as a fraction of elapsed time since start.
func (c *Core) Utilization() float64 {
	now := c.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(c.BusyTime()) / float64(now)
}

// Energy reports relative energy consumed so far, in core-seconds of
// full-power operation: busy time at busyW, poll time at pollW (1.0 for a
// spinning poller, less under monitor/mwait), idle time at idleW.
func (c *Core) Energy(busyW, pollW, idleW float64) float64 {
	return busyW*c.BusyTime().Seconds() +
		pollW*c.Accounted(KindPoll).Seconds() +
		idleW*c.IdleTime().Seconds()
}

// WaitFraction reports the fraction of work items that queued behind other
// work — the "contention" series of Figure 8.
func (c *Core) WaitFraction() float64 {
	total := c.Executed + uint64(c.QueueLen())
	if c.running {
		total++
	}
	if total == 0 {
		return 0
	}
	return float64(c.Waited) / float64(total)
}

// Sampler periodically records a core's utilization into a stats.Series,
// producing the Figure 15 timelines. It reports utilization over each
// sample window (not cumulative).
type Sampler struct {
	Series stats.Series
}

// NewSampler starts sampling the core's busy fraction every period.
func NewSampler(eng *sim.Engine, c *Core, period sim.Time) *Sampler {
	s := &Sampler{}
	lastBusy := sim.Time(0)
	lastT := eng.Now()
	eng.Ticker(period, func() {
		now := eng.Now()
		busy := c.BusyTime()
		window := now - lastT
		if window > 0 {
			s.Series.Add(int64(now), float64(busy-lastBusy)/float64(window))
		}
		lastBusy, lastT = busy, now
	})
	return s
}
