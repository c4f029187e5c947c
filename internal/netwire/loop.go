package netwire

import (
	"net/netip"
	"sync"
	"time"

	"vrio/internal/bufpool"
	"vrio/internal/sim"
)

// Loop is the run loop that makes real-socket carriers safe for the
// single-threaded transport stack. Everything in the simulation's world —
// driver, endpoint, buffer pool — assumes one goroutine per cell; a Loop
// recreates that cell around wall-clock sockets by serializing every
// received frame, every timer expiry, and every posted call onto the one
// goroutine running Run. Socket readers and the runtime's timer callbacks
// only ever post work; they never touch transport state.
//
// Loop implements sim.Clock: Now is wall time since the loop was created
// (as sim.Time nanoseconds) and AfterFunc arms a real timer whose callback
// is delivered on the loop goroutine. Timers are pooled and re-armed with
// Reset, so the steady-state retransmission path allocates nothing.
type Loop struct {
	start time.Time
	work  chan work
	quit  chan struct{}
	once  sync.Once

	// timers recycles wallTimer shells; loop goroutine only.
	timers *bufpool.List[wallTimer]
}

// work is one unit queued to the loop goroutine, discriminated by which
// field is set: fn (a posted call), wt (a timer expiry), else a frame that
// carrier c received. Frames travel by value through the channel, so the
// steady-state receive path allocates nothing. The frame buffer is only
// borrowed by handleFrame; the loop returns it to the carrier's reader
// afterwards.
type work struct {
	fn    func()
	wt    *wallTimer
	c     *UDPCarrier
	frame []byte
	from  netip.AddrPort
}

// NewLoop returns a loop with its clock at zero. Call Run on the goroutine
// that will own the transport stack.
func NewLoop() *Loop {
	l := &Loop{
		start: time.Now(),
		work:  make(chan work, 512),
		quit:  make(chan struct{}),
	}
	l.timers = bufpool.NewList("netwire timers", func() *wallTimer { return &wallTimer{loop: l} })
	return l
}

// Now reports wall time since the loop was created, in sim.Time
// nanoseconds (time.Since uses the monotonic clock).
func (l *Loop) Now() sim.Time { return sim.Time(time.Since(l.start)) }

// Run processes work until Close. It must be called on exactly one
// goroutine; that goroutine becomes the cell every attached carrier and
// transport belongs to.
func (l *Loop) Run() {
	for {
		select {
		case <-l.quit:
			return
		case w := <-l.work:
			l.dispatch(w)
		}
	}
}

// Close makes Run return. Work already queued may be discarded; callers
// wanting a graceful drain quiesce their transports first (see
// cmd/vrio-loadgen). Safe to call from any goroutine, more than once.
func (l *Loop) Close() { l.once.Do(func() { close(l.quit) }) }

// Post runs fn on the loop goroutine. It reports false when the loop is
// closed (fn will never run). Post must not be called from the loop
// goroutine itself: with the queue full it would deadlock — loop-side code
// just calls fn directly.
func (l *Loop) Post(fn func()) bool { return l.post(work{fn: fn}) }

func (l *Loop) post(w work) bool {
	// Check quit first: with both cases ready, a select picks at random,
	// and a send into a closed loop's queue would report true for work
	// that never runs.
	select {
	case <-l.quit:
		return false
	default:
	}
	select {
	case l.work <- w:
		return true
	case <-l.quit:
		return false
	}
}

func (l *Loop) dispatch(w work) {
	switch {
	case w.fn != nil:
		w.fn()
	case w.wt != nil:
		l.fire(w.wt)
	default:
		w.c.handleFrame(w.frame, w.from)
		w.c.free <- w.frame[:cap(w.frame)]
	}
}

// wallTimer backs one Loop timer. All fields are owned by the loop
// goroutine; the runtime callback created once per shell only posts the
// shell, it reads nothing. Stale posts — a fire racing a Stop or a Reset,
// or surviving into the shell's next incarnation off the free list — are
// disarmed by the armed flag and the deadline re-check in fire, so a
// callback runs exactly once, at or after its deadline, or never once
// stopped.
type wallTimer struct {
	loop     *Loop
	t        *time.Timer
	fn       func()
	deadline int64 // ns on the loop clock
	armed    bool
}

// Stop implements sim.ExternalTimer. Loop goroutine only.
func (wt *wallTimer) Stop() bool {
	if !wt.armed {
		return false
	}
	wt.armed = false
	wt.fn = nil
	wt.t.Stop()
	wt.loop.timers.Put(wt)
	return true
}

// AfterFunc arms fn to run on the loop goroutine d nanoseconds from now.
// Part of sim.Clock; call on the loop goroutine only.
func (l *Loop) AfterFunc(d sim.Time, fn func()) sim.TimerID {
	if fn == nil {
		panic("netwire: AfterFunc with nil fn")
	}
	if d < 0 {
		d = 0
	}
	wt := l.timers.Get()
	wt.fn = fn
	wt.armed = true
	wt.deadline = int64(l.Now()) + int64(d)
	if wt.t == nil {
		wt.t = time.AfterFunc(time.Duration(d), func() { l.post(work{wt: wt}) })
	} else {
		wt.t.Reset(time.Duration(d))
	}
	return sim.ExternalTimerID(wt)
}

// CancelTimer disarms a timer armed by AfterFunc. Part of sim.Clock.
func (l *Loop) CancelTimer(id sim.TimerID) {
	if t := id.External(); t != nil {
		t.Stop()
	}
}

// fire handles one posted timer expiry on the loop goroutine.
func (l *Loop) fire(wt *wallTimer) {
	if !wt.armed {
		return // stopped, or a stale post from a previous incarnation
	}
	if now := int64(l.Now()); now < wt.deadline {
		// A stale post for a shell since re-armed: put the real deadline
		// back and wait it out.
		wt.t.Reset(time.Duration(wt.deadline - now))
		return
	}
	wt.armed = false
	fn := wt.fn
	wt.fn = nil
	l.timers.Put(wt)
	fn()
}

var _ sim.Clock = (*Loop)(nil)
