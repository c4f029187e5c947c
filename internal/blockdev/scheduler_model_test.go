package blockdev

import (
	"fmt"
	"testing"

	"vrio/internal/sim"
)

// refScheduler is the reference model for Scheduler: the per-sector lock
// map it was first written with. Each request locks every sector it spans,
// and drain marks the sectors of every request left waiting so a later
// request never overtakes an earlier overlapping one.
type refScheduler struct {
	backend    Backend
	sectorSize int
	locked     map[uint64]bool
	waiting    []queued
	deferred   uint64
}

func (s *refScheduler) span(req Request) (uint64, uint64) {
	n := uint64(req.Sectors)
	if req.Op == OpWrite || req.Op == OpVolWrite {
		n = uint64((len(req.Data) + s.sectorSize - 1) / s.sectorSize)
	}
	if req.Op == OpFlush || n == 0 {
		return req.Sector, 1
	}
	return req.Sector, n
}

func (s *refScheduler) conflict(sector, n uint64) bool {
	for i := uint64(0); i < n; i++ {
		if s.locked[sector+i] {
			return true
		}
	}
	return false
}

func (s *refScheduler) Submit(req Request, done func(Response)) {
	sector, n := s.span(req)
	if s.conflict(sector, n) {
		s.deferred++
		s.waiting = append(s.waiting, queued{req, done})
		return
	}
	s.dispatch(req, done, sector, n)
}

func (s *refScheduler) dispatch(req Request, done func(Response), sector, n uint64) {
	for i := uint64(0); i < n; i++ {
		s.locked[sector+i] = true
	}
	s.backend.Submit(req, func(resp Response) {
		for i := uint64(0); i < n; i++ {
			delete(s.locked, sector+i)
		}
		s.drain()
		done(resp)
	})
}

func (s *refScheduler) drain() {
	blocked := make(map[uint64]bool)
	remaining := s.waiting[:0]
	for _, q := range s.waiting {
		sector, n := s.span(q.req)
		blockedByEarlier := false
		for i := uint64(0); i < n; i++ {
			if blocked[sector+i] {
				blockedByEarlier = true
				break
			}
		}
		if !blockedByEarlier && !s.conflict(sector, n) {
			s.dispatch(q.req, q.done, sector, n)
			continue
		}
		for i := uint64(0); i < n; i++ {
			blocked[sector+i] = true
		}
		remaining = append(remaining, q)
	}
	s.waiting = remaining
}

// schedEvent is one dispatch or completion: which request, and when.
type schedEvent struct {
	id uint64
	at sim.Time
}

// schedRun is one scheduler's history under a random request mix.
type schedRun struct {
	dispatched, completed []schedEvent
	submitted             []Request // in submission order; Version is the id
	counts                []int     // completions per id
	held                  []bool    // per id: not dispatched within Submit
	doneMark              []int     // per id: dispatches before the backend completed it
	deferred              uint64
}

// schedUnderTest is a scheduler with its deferral count.
type schedUnderTest interface {
	Backend
	deferrals() uint64
}

func (s *Scheduler) deferrals() uint64    { return s.Deferred }
func (s *refScheduler) deferrals() uint64 { return s.deferred }

// runSchedMix drives one scheduler with a seeded mix of overlapping
// multi-sector reads, writes and flushes, some submitted at random times
// and some from completion callbacks, over a backend whose service time
// depends only on the request. The request id rides in Version, which the
// scheduler never reads.
func runSchedMix(seed uint64, build func(Backend) schedUnderTest) schedRun {
	e := sim.NewEngine()
	rng := sim.NewRNG(seed)
	var run schedRun
	var s schedUnderTest
	atBackend := 0
	backend := backendFunc(func(req Request, done func(Response)) {
		run.dispatched = append(run.dispatched, schedEvent{req.Version, e.Now()})
		atBackend++
		e.After(sim.Time(1+req.Version*7919%97), func() {
			atBackend--
			run.doneMark[req.Version] = len(run.dispatched)
			done(Response{})
		})
	})
	s = build(backend)
	const sectors = 24
	var submit func()
	submit = func() {
		id := uint64(len(run.submitted))
		sector := uint64(rng.Intn(sectors))
		var req Request
		switch k := rng.Intn(10); {
		case k < 4:
			req = Request{Op: OpRead, Sector: sector, Sectors: 1 + rng.Intn(6)}
		case k < 8:
			req = Request{Op: OpWrite, Sector: sector, Data: make([]byte, 512*(1+rng.Intn(6))-rng.Intn(2)*100)}
		case k < 9:
			req = Request{Op: OpVolWrite, Sector: sector, Data: make([]byte, 512*(1+rng.Intn(3)))}
		default:
			req = Request{Op: OpFlush, Sector: sector}
		}
		req.Version = id
		run.submitted = append(run.submitted, req)
		run.counts = append(run.counts, 0)
		run.doneMark = append(run.doneMark, 0)
		s.Submit(req, func(Response) {
			run.counts[id]++
			run.completed = append(run.completed, schedEvent{id, e.Now()})
			if rng.Intn(3) == 0 {
				submit()
			}
		})
		n := len(run.dispatched)
		run.held = append(run.held, n == 0 || run.dispatched[n-1].id != id)
	}
	for i := 0; i < 300; i++ {
		e.At(sim.Time(rng.Intn(3000)), submit)
	}
	e.Run()
	if atBackend != 0 {
		panic(fmt.Sprintf("%d requests never completed at the backend", atBackend))
	}
	run.deferred = s.deferrals()
	return run
}

// TestSchedulerMatchesPerSectorModel checks the range scheduler against the
// per-sector reference model over random mixes: the same dispatch order and
// times, the same completions, the same deferral count; every request
// completes exactly once; requests that share a sector are never at the
// backend together; and deferred requests that share a sector are
// dispatched in submission order.
func TestSchedulerMatchesPerSectorModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		got := runSchedMix(seed, func(b Backend) schedUnderTest { return NewScheduler(b, 512) })
		want := runSchedMix(seed, func(b Backend) schedUnderTest {
			return &refScheduler{backend: b, sectorSize: 512, locked: make(map[uint64]bool)}
		})
		if len(got.submitted) != len(want.submitted) {
			t.Fatalf("seed %d: %d requests submitted, model %d", seed, len(got.submitted), len(want.submitted))
		}
		if !equalEvents(got.dispatched, want.dispatched) {
			t.Fatalf("seed %d: dispatch order differs from the per-sector model", seed)
		}
		if !equalEvents(got.completed, want.completed) {
			t.Fatalf("seed %d: completions differ from the per-sector model", seed)
		}
		if got.deferred != want.deferred {
			t.Fatalf("seed %d: deferred %d, model %d", seed, got.deferred, want.deferred)
		}
		for id, n := range got.counts {
			if n != 1 {
				t.Fatalf("seed %d: request %d completed %d times", seed, id, n)
			}
		}
		checkRangeFIFO(t, seed, got)
	}
}

func equalEvents(a, b []schedEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkRangeFIFO checks that of any two requests sharing a sector, the
// later one is dispatched only after the earlier completes, and that two
// deferred ones are dispatched in submission order. (A new request that
// overlaps nothing at the backend is dispatched at once, even past a
// deferred request it overlaps; the per-sector model does the same.)
func checkRangeFIFO(t *testing.T, seed uint64, run schedRun) {
	t.Helper()
	s := NewScheduler(nil, 512)
	dispatchAt := make([]int, len(run.submitted))
	for i, ev := range run.dispatched {
		dispatchAt[ev.id] = i
	}
	for a := range run.submitted {
		ra := s.span(run.submitted[a])
		for b := a + 1; b < len(run.submitted); b++ {
			if !ra.overlaps(s.span(run.submitted[b])) {
				continue
			}
			first, second := a, b
			if dispatchAt[b] < dispatchAt[a] {
				if run.held[a] && run.held[b] {
					t.Fatalf("seed %d: deferred request %d overtook overlapping deferred request %d", seed, b, a)
				}
				first, second = b, a
			}
			if dispatchAt[second] < run.doneMark[first] {
				t.Fatalf("seed %d: request %d dispatched while overlapping request %d was outstanding", seed, second, first)
			}
		}
	}
}

// TestSchedulerOutstandingCountsRequests pins what Outstanding reports:
// requests at the backend, however many sectors each spans.
func TestSchedulerOutstandingCountsRequests(t *testing.T) {
	e := sim.NewEngine()
	s := NewScheduler(NewDevice(e, NewStore(512, 64), 100, 8), 512)
	s.Submit(Request{Op: OpWrite, Sector: 0, Data: make([]byte, 4096)}, func(Response) {})
	s.Submit(Request{Op: OpRead, Sector: 16, Sectors: 8}, func(Response) {})
	s.Submit(Request{Op: OpRead, Sector: 4, Sectors: 2}, func(Response) {}) // overlaps the write
	if s.Outstanding() != 2 || s.Waiting() != 1 {
		t.Fatalf("Outstanding = %d, Waiting = %d; want 2 requests at the backend (16 sectors) and 1 waiting",
			s.Outstanding(), s.Waiting())
	}
	e.Run()
	if s.Outstanding() != 0 || s.Waiting() != 0 {
		t.Fatalf("Outstanding = %d, Waiting = %d after draining, want 0 and 0", s.Outstanding(), s.Waiting())
	}
}
