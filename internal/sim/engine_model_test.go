package sim

import (
	"fmt"
	"sort"
	"testing"
)

// The engine is checked against its specification: a slice kept sorted by
// (at, seq) from which Cancel removes at once. Both are driven by the same
// byte program, top-level steps and actions taken from inside running
// events alike, and after every step the executed sequence, the clock and
// Pending must agree.

// refEvent is one event of the reference queue.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refQueue is the reference: the obvious sorted-list event queue.
type refQueue struct {
	now Time
	seq uint64
	q   []*refEvent
}

func (r *refQueue) at(t Time, id int) {
	ev := &refEvent{at: t, seq: r.seq, id: id}
	r.seq++
	i := sort.Search(len(r.q), func(i int) bool {
		return r.q[i].at > t || (r.q[i].at == t && r.q[i].seq > ev.seq)
	})
	r.q = append(r.q, nil)
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = ev
}

func (r *refQueue) cancel(id int) {
	for i, ev := range r.q {
		if ev.id == id {
			r.q = append(r.q[:i], r.q[i+1:]...)
			return
		}
	}
}

func (r *refQueue) runUntil(deadline Time, fire func(id int)) {
	for len(r.q) > 0 {
		ev := r.q[0]
		if ev.at > deadline {
			if r.now < deadline {
				r.now = deadline
			}
			return
		}
		r.q = r.q[1:]
		r.now = ev.at
		fire(ev.id)
	}
	if r.now < deadline && deadline != MaxTime {
		r.now = deadline
	}
}

// fired is one executed event: its program id and the clock when it ran.
type fired struct {
	id int
	at Time
}

// world runs a byte program against the engine (eng != nil) or the
// reference. Events are numbered in creation order, so both worlds name the
// same event by the same id.
type world struct {
	prog []byte
	pos  int
	log  []fired
	n    int // events created so far

	eng *Engine
	ids []EventID
	ref *refQueue
}

// next returns the program's next byte, or 255 (take no action) once the
// program is exhausted.
func (w *world) next() byte {
	if w.pos >= len(w.prog) {
		return 255
	}
	b := w.prog[w.pos]
	w.pos++
	return b
}

func (w *world) done() bool { return w.pos >= len(w.prog) }

func (w *world) now() Time {
	if w.eng != nil {
		return w.eng.Now()
	}
	return w.ref.now
}

func (w *world) pending() int {
	if w.eng != nil {
		return w.eng.Pending()
	}
	return len(w.ref.q)
}

func (w *world) nextAt() (Time, bool) {
	if w.eng != nil {
		return w.eng.NextAt()
	}
	if len(w.ref.q) == 0 {
		return 0, false
	}
	return w.ref.q[0].at, true
}

func (w *world) runUntil(deadline Time) {
	if w.eng != nil {
		w.eng.RunUntil(deadline)
		return
	}
	w.ref.runUntil(deadline, w.fire)
}

// schedule creates the next event at t.
func (w *world) schedule(t Time) {
	id := w.n
	w.n++
	if w.eng != nil {
		w.ids = append(w.ids, w.eng.At(t, func() { w.fire(id) }))
		return
	}
	w.ref.at(t, id)
}

// cancel cancels the event the byte b names: queued in the wheel or the
// overflow, already run, or already cancelled.
func (w *world) cancel(b byte) {
	if w.n == 0 {
		return
	}
	id := w.n - 1 - int(b)%w.n
	if w.eng != nil {
		w.eng.Cancel(w.ids[id])
		return
	}
	w.ref.cancel(id)
}

// modelDelays straddle the wheel's geometry: a bucket (256 ns), bucket
// multiples, the horizon (65536 ns), the net-rr mix, far timers, and
// near-MaxTime.
var modelDelays = [...]Time{
	0, 1, 255, 256, 257, 511, 512, 768, 4095, 493, 600, 1200, 4000,
	65535, 65536, 65537, 65536 + 255, 65536 + 256, 2*65536 - 1, 2 * 65536,
	3*65536 + 1, Millisecond, 10 * Millisecond, Second, MaxTime, MaxTime - 1000,
}

// after is now+d, saturating at MaxTime.
func after(now, d Time) Time {
	if t := now + d; t >= now {
		return t
	}
	return MaxTime
}

// fire records an event and takes two actions from inside it. Each
// schedules with probability 7/16, so the event population stays finite.
func (w *world) fire(id int) {
	w.log = append(w.log, fired{id, w.now()})
	for k := 0; k < 2; k++ {
		switch c := w.next(); {
		case c < 112:
			w.schedule(after(w.now(), modelDelays[int(c)%len(modelDelays)]))
		case c < 150:
			w.cancel(w.next())
		}
	}
}

// between returns a time in [now, next) picked by b, or now when next is
// not ahead.
func between(now, next Time, b byte) Time {
	if next <= now {
		return now
	}
	return now + Time(uint64(next-now)*uint64(b)/256)
}

// step takes one top-level step of the program.
func (w *world) step() {
	switch op := w.next() % 8; op {
	case 0, 1:
		w.schedule(after(w.now(), modelDelays[int(w.next())%len(modelDelays)]))
	case 2:
		w.cancel(w.next())
	case 3, 4:
		// Run to a deadline short of, at or just past the next event,
		// then schedule between the new now and the next event: the case
		// a cursor that ran ahead of the clock gets wrong.
		next, ok := w.nextAt()
		if !ok {
			next = w.now()
		}
		var deadline Time
		switch b := w.next(); b % 4 {
		case 0:
			deadline = between(w.now(), next, w.next())
		case 1:
			deadline = next - 1
		case 2:
			deadline = next
		default:
			deadline = after(next, Time(b))
		}
		if deadline < w.now() {
			deadline = w.now()
		}
		w.runUntil(deadline)
		if next, ok := w.nextAt(); ok {
			w.schedule(between(w.now(), next, w.next()))
		}
	case 5:
		// Peek, then schedule ahead of what the peek saw.
		if next, ok := w.nextAt(); ok {
			w.schedule(between(w.now(), next, w.next()))
		}
	case 6:
		// A burst of timers, most of them cancelled: compaction.
		first := w.n
		burst := 70 + int(w.next())%60
		for i := 0; i < burst; i++ {
			w.schedule(after(w.now(), modelDelays[int(w.next())%len(modelDelays)]))
		}
		for i := first; i < w.n; i++ {
			if w.next()%5 != 0 {
				w.cancel(byte(w.n - 1 - i))
			}
		}
	case 7:
		w.runUntil(after(w.now(), Time(w.next())*Microsecond))
	}
}

// diffWorlds reports the first disagreement between the engine and the
// reference, or "".
func diffWorlds(e, r *world) string {
	for i := 0; i < len(e.log) && i < len(r.log); i++ {
		if e.log[i] != r.log[i] {
			return fmt.Sprintf("event %d: engine ran %+v, reference %+v", i, e.log[i], r.log[i])
		}
	}
	if len(e.log) != len(r.log) {
		return fmt.Sprintf("engine ran %d events, reference %d", len(e.log), len(r.log))
	}
	if e.now() != r.now() {
		return fmt.Sprintf("engine now %v, reference %v", e.now(), r.now())
	}
	if e.pending() != r.pending() {
		return fmt.Sprintf("engine Pending %d, reference %d", e.pending(), r.pending())
	}
	return ""
}

// checkProgram runs prog against the engine and the reference in lockstep.
func checkProgram(t *testing.T, prog []byte) {
	t.Helper()
	e := &world{prog: prog, eng: NewEngine()}
	r := &world{prog: prog, ref: &refQueue{}}
	for steps := 0; !e.done() && steps < 4096; steps++ {
		e.step()
		r.step()
		if d := diffWorlds(e, r); d != "" {
			t.Fatalf("step %d: %s", steps, d)
		}
		if err := e.eng.checkInvariants(); err != nil {
			t.Fatalf("step %d: %v", steps, err)
		}
	}
	// Drain both; everything left runs in the same order.
	e.runUntil(MaxTime)
	r.runUntil(MaxTime)
	if d := diffWorlds(e, r); d != "" {
		t.Fatalf("drain: %s", d)
	}
}

// checkInvariants verifies the queue's layout: the cursor is the clock's
// tick, every wheel event sits in its tick's bucket inside the horizon in
// (at, seq) order, the occupancy bits and counters match, and every
// overflow event lies at or beyond the horizon.
func (e *Engine) checkInvariants() error {
	if e.cursor != int64(e.now)>>bucketShift {
		return fmt.Errorf("cursor %d, clock tick %d", e.cursor, int64(e.now)>>bucketShift)
	}
	inWheel := 0
	for b := range e.wheel {
		bk := &e.wheel[b]
		if occ := e.occupied[b>>6]&(1<<(b&63)) != 0; occ != (bk.head != nil) {
			return fmt.Errorf("bucket %d: occupied bit %v, head %v", b, occ, bk.head)
		}
		var prev *event
		for ev := bk.head; ev != nil; ev = ev.next {
			tick := int64(ev.at) >> bucketShift
			if tick < e.cursor || tick-e.cursor >= wheelBuckets || int(tick&wheelMask) != b {
				return fmt.Errorf("event at %v (tick %d) in bucket %d, cursor %d", ev.at, tick, b, e.cursor)
			}
			if prev != nil && !eventLess(prev, ev) {
				return fmt.Errorf("bucket %d out of (at, seq) order", b)
			}
			if ev.next == nil && bk.tail != ev {
				return fmt.Errorf("bucket %d tail is not its last event", b)
			}
			prev = ev
			inWheel++
		}
	}
	if inWheel != e.inWheel {
		return fmt.Errorf("inWheel %d, counted %d", e.inWheel, inWheel)
	}
	for i, ev := range e.heap {
		if int64(ev.at)>>bucketShift-e.cursor < wheelBuckets {
			return fmt.Errorf("overflow event at %v inside the horizon (cursor %d)", ev.at, e.cursor)
		}
		if i > 0 && eventLess(ev, e.heap[(i-1)>>2]) {
			return fmt.Errorf("overflow heap order broken at %d", i)
		}
	}
	if queued := inWheel + len(e.heap); queued != e.pending+e.tombstones {
		return fmt.Errorf("%d queued, pending %d + tombstones %d", queued, e.pending, e.tombstones)
	}
	return nil
}

// TestEngineMatchesReferenceModel runs seeded random programs through the
// engine and the reference.
func TestEngineMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := NewRNG(seed)
		prog := make([]byte, 512+rng.Intn(4096))
		for i := range prog {
			prog[i] = byte(rng.Uint64())
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkProgram(t, prog) })
	}
}

// FuzzEngineSchedule checks arbitrary programs. The seed corpus runs under
// plain go test.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{})
	// A far event, a deadline well short of it, then an event in between.
	f.Add([]byte{0, 15, 3, 0, 8, 128, 3, 0, 8, 200})
	// Events at the horizon's first two ticks; the first is cancelled and
	// a peek discards its tombstone; then an event before the second, which
	// a cursor moved by the tombstone would misplace.
	f.Add([]byte{0, 15, 0, 17, 2, 1, 5, 2, 7, 255})
	// Peeks between steps.
	f.Add([]byte{0, 14, 5, 100, 0, 2, 5, 10, 3, 1, 5, 200, 7, 1})
	// Compaction bursts.
	f.Add([]byte{6, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 3, 2, 6, 50, 7, 255})
	rng := NewRNG(0xf022)
	for i := 0; i < 8; i++ {
		prog := make([]byte, 256)
		for j := range prog {
			prog[j] = byte(rng.Uint64())
		}
		f.Add(prog)
	}
	f.Fuzz(checkProgram)
}
