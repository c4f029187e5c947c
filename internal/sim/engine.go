// Package sim provides the deterministic discrete-event simulation engine
// that the whole vRIO reproduction runs on.
//
// Each engine is single-threaded: events are callbacks ordered by simulated
// time, with FIFO tie-breaking on equal timestamps. Given the same seed and
// the same sequence of scheduling calls, a simulation is bit-reproducible,
// which is what lets every figure in EXPERIMENTS.md regenerate identically.
// Distinct engines share no state, so independent simulations may run on
// concurrent goroutines (see experiments.RunAllParallel).
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Common durations, expressed in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulated time.
const MaxTime Time = math.MaxInt64

// Seconds converts a simulated duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a simulated duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, e.g. "12.5µs".
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fµs", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4fs", float64(t)/float64(Second))
	}
}

// totalExecuted counts events executed across every engine in the process.
// It exists only for throughput reporting (events/sec); the engines
// themselves never read it. Updated once per Run, not per event.
var totalExecuted atomic.Uint64

// TotalExecuted reports how many events all engines in this process have
// executed so far. Safe to call concurrently with running engines; the
// count lags each engine's in-progress Run until that Run returns.
func TotalExecuted() uint64 { return totalExecuted.Load() }

// The event queue is a timing wheel (a calendar queue, Brown, CACM 1988)
// with a heap behind it for the far future. Simulated time is cut into
// buckets of 2^bucketShift ns; the wheel holds the wheelBuckets buckets from
// the cursor (now >> bucketShift) on, a horizon of 65.5 µs. The geometry
// fits the measured delay mix: in net-rr 99.5% of events are scheduled
// under 8 µs ahead and its top dozen delays (460 ns-6.4 µs) carry 86-99% of
// pushes, so a bucket holds a handful of events and nearly every push is a
// tail append to a short list.
const (
	bucketShift  = 8
	wheelBuckets = 256
	wheelMask    = wheelBuckets - 1
)

// event is a pooled queue entry. gen distinguishes incarnations of the same
// struct across free-list reuse, so a stale EventID can never cancel an
// unrelated later event.
type event struct {
	at       Time
	seq      uint64 // FIFO tie-break for events at the same instant
	fn       func()
	gen      uint64
	next     *event // bucket list, or the free list once recycled
	canceled bool
}

// bucket is one wheel slot: an intrusive list in (at, seq) order.
type bucket struct{ head, tail *event }

// EventID identifies a scheduled event so it can be cancelled.
type EventID struct {
	ev  *event
	gen uint64
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now Time
	seq uint64
	// wheel holds every queued event due before the horizon: bucket
	// tick&wheelMask lists the events of tick = at >> bucketShift, for
	// ticks in [cursor, cursor+wheelBuckets), so scanning the buckets
	// circularly from the cursor visits them in time order. occupied has
	// one bit per non-empty bucket and the scan is a TrailingZeros64 per
	// word. The cursor follows the clock and nothing else: it moves only
	// when now moves, never on a peek or on discarding a tombstone, so
	// At(t) for any t >= now lands inside the window.
	wheel    [wheelBuckets]bucket
	occupied [wheelBuckets / 64]uint64
	inWheel  int
	cursor   int64
	// heap is the overflow: a monomorphic 4-ary min-heap on (at, seq) of
	// the events at or beyond the horizon. When the cursor advances, the
	// events it brings within the horizon migrate into the wheel, so every
	// wheel event precedes every overflow event and the queue's minimum is
	// the first occupied bucket's head, or else the heap top.
	heap []*event
	// free recycles run and compacted event structs through their next
	// links, so steady-state scheduling does not allocate.
	free *event
	// pending counts live (scheduled, not yet run or cancelled) events;
	// tombstones counts cancelled entries still parked in the queue.
	pending    int
	tombstones int
	stopped    bool
	running    bool

	// interrupted is the one cross-goroutine control on an engine: a signal
	// handler (or any watchdog) may request that Run return at the next
	// event boundary. Checked every 256 events so the hot loop pays one
	// masked branch, not an atomic load per event.
	interrupted atomic.Bool

	// Stats
	executed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are scheduled and not yet run or
// cancelled. It is a live counter: O(1), never a queue scan.
func (e *Engine) Pending() int { return e.pending }

// NextAt reports the timestamp of the earliest live event, or false if none
// remain. Cancelled tombstones ahead of it are discarded on the way; the
// clock does not move.
func (e *Engine) NextAt() (Time, bool) {
	if e.pending == 0 {
		return 0, false
	}
	for {
		next, b := e.first()
		if !next.canceled {
			return next.at, true
		}
		if b >= 0 {
			e.unlink(b)
		} else {
			e.heapPop()
		}
		e.tombstones--
		e.recycle(next)
	}
}

// first returns the queue's minimum and where it sits: a wheel bucket
// index, or -1 for the overflow heap top. The queue must not be empty.
func (e *Engine) first() (*event, int) {
	if e.inWheel == 0 {
		return e.heap[0], -1
	}
	b := e.firstBucket()
	return e.wheel[b].head, b
}

// firstBucket returns the first occupied bucket at or after the cursor's,
// circularly. The wheel must not be empty.
func (e *Engine) firstBucket() int {
	c := int(e.cursor) & wheelMask
	w := c >> 6
	m := e.occupied[w] & (^uint64(0) << (c & 63))
	// Past the cursor's word, wrap round to the start word, whose bits at
	// and above c are known clear: the buckets behind the cursor hold the
	// ticks furthest ahead.
	for m == 0 {
		w = (w + 1) & (len(e.occupied) - 1)
		m = e.occupied[w]
	}
	return w<<6 + bits.TrailingZeros64(m)
}

// unlink drops bucket b's head.
func (e *Engine) unlink(b int) {
	bk := &e.wheel[b]
	bk.head = bk.head.next
	e.inWheel--
	if bk.head == nil {
		bk.tail = nil
		e.occupied[b>>6] &^= 1 << (b & 63)
	}
}

// push queues ev in the wheel when it falls before the horizon, else in the
// overflow heap. ev.next must be nil.
func (e *Engine) push(ev *event) {
	tick := int64(ev.at) >> bucketShift
	if tick-e.cursor >= wheelBuckets {
		e.heap = append(e.heap, ev)
		e.siftUp(len(e.heap) - 1)
		return
	}
	e.inWheel++
	b := int(tick & wheelMask)
	bk := &e.wheel[b]
	switch {
	case bk.tail == nil:
		bk.head, bk.tail = ev, ev
		e.occupied[b>>6] |= 1 << (b & 63)
	case !eventLess(ev, bk.tail):
		bk.tail.next = ev
		bk.tail = ev
	case eventLess(ev, bk.head):
		ev.next = bk.head
		bk.head = ev
	default:
		p := bk.head
		for !eventLess(ev, p.next) {
			p = p.next
		}
		ev.next = p.next
		p.next = ev
	}
}

// advance moves the clock to t (t >= now) and the cursor with it.
func (e *Engine) advance(t Time) {
	e.now = t
	if c := int64(t) >> bucketShift; c != e.cursor {
		e.moveCursor(c)
	}
}

// moveCursor sets the cursor to tick c, past every queued wheel event's
// tick, and migrates the overflow events the new horizon covers into the
// wheel.
func (e *Engine) moveCursor(c int64) {
	e.cursor = c
	for len(e.heap) > 0 && int64(e.heap[0].at)>>bucketShift-c < wheelBuckets {
		e.push(e.heapPop())
	}
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp moves heap[i] toward the root until its parent is not larger.
func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// siftDown re-seats ev starting at slot i, descending toward the smallest
// of up to four children.
func (e *Engine) siftDown(ev *event, i int) {
	h := e.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// heapPop removes and returns the overflow's minimum element.
func (e *Engine) heapPop() *event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(last, 0)
	}
	return top
}

// recycle retires an event struct to the free list. Bumping gen invalidates
// every outstanding EventID for this incarnation.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.next = e.free
	e.free = ev
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a bug in the model, never a recoverable condition.
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.canceled = t, e.seq, fn, false
	e.seq++
	e.pending++
	e.push(ev)
	return EventID{ev, ev.gen}
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) EventID {
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an already-run or
// already-cancelled event is a harmless no-op. The entry is tombstoned in
// place — O(1) — and discarded when it surfaces at the head of the queue (or
// when tombstones pile up enough to warrant a compaction).
func (e *Engine) Cancel(id EventID) {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || ev.canceled {
		return
	}
	ev.canceled = true
	ev.fn = nil // release the closure now; the shell stays queued
	e.pending--
	e.tombstones++
	if e.tombstones > 64 && e.tombstones > (e.pending+e.tombstones)/2 {
		e.compact()
	}
}

// compact drops every tombstone from the wheel and the overflow. Runs only
// when more than half the queue is dead, so its amortized cost per Cancel
// is O(1).
func (e *Engine) compact() {
	occupied := e.occupied
	clear(e.occupied[:])
	e.inWheel = 0
	for w, word := range occupied {
		for ; word != 0; word &= word - 1 {
			bk := &e.wheel[w<<6+bits.TrailingZeros64(word)]
			ev := bk.head
			*bk = bucket{}
			for ev != nil {
				next := ev.next
				ev.next = nil
				if ev.canceled {
					e.recycle(ev)
				} else {
					e.push(ev) // back to its bucket's tail, order kept
				}
				ev = next
			}
		}
	}
	live := e.heap[:0]
	for _, ev := range e.heap {
		if ev.canceled {
			e.recycle(ev)
		} else {
			live = append(live, ev)
		}
	}
	clear(e.heap[len(live):])
	e.heap = live
	e.tombstones = 0
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		e.siftDown(e.heap[i], i)
	}
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(MaxTime)
}

// RunUntil executes events with timestamps <= deadline, advancing the clock
// to each event's time. When it returns, the clock is at the last executed
// event (or at deadline if that is smaller and events remain).
func (e *Engine) RunUntil(deadline Time) {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	e.stopped = false
	startExecuted := e.executed
	defer func() {
		e.running = false
		totalExecuted.Add(e.executed - startExecuted)
	}()
	for !e.stopped {
		if e.inWheel == 0 && len(e.heap) == 0 {
			break
		}
		next, b := e.first()
		if e.executed&255 == 0 && e.interrupted.Load() {
			return
		}
		if next.at > deadline && !next.canceled {
			if e.now < deadline {
				e.advance(deadline)
			}
			return
		}
		if b >= 0 {
			e.unlink(b)
		} else {
			e.heapPop()
		}
		if next.canceled {
			e.tombstones--
			e.recycle(next)
			continue
		}
		e.advance(next.at)
		e.pending--
		e.executed++
		fn := next.fn
		e.recycle(next)
		fn()
	}
	if !e.stopped && e.now < deadline && deadline != MaxTime {
		e.advance(deadline)
	}
}

// Stop halts Run/RunUntil after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Interrupt requests that Run/RunUntil return at an event boundary soon
// (within 256 events). Unlike Stop it is safe to call from another
// goroutine — it is how a SIGINT handler drains a long simulation instead
// of killing it mid-write. The flag is sticky: once interrupted, further
// Run calls return immediately until ClearInterrupt.
func (e *Engine) Interrupt() { e.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (e *Engine) Interrupted() bool { return e.interrupted.Load() }

// ClearInterrupt re-arms the engine after an Interrupt.
func (e *Engine) ClearInterrupt() { e.interrupted.Store(false) }

// Ticker invokes fn every period until the returned stop function is called.
// The first tick fires one period from now.
func (e *Engine) Ticker(period Time, fn func()) (stop func()) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	stopped := false
	// tick is bound once and reschedules itself each period, so a running
	// ticker costs one pooled event per tick and no closure.
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			e.After(period, tick)
		}
	}
	e.After(period, tick)
	return func() { stopped = true }
}
