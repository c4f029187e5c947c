package blockdev

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"vrio/internal/sim"
)

func TestStoreReadWriteRoundTrip(t *testing.T) {
	s := NewStore(512, 1000)
	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := s.Write(10, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read-back mismatch")
	}
}

func TestStoreUnwrittenReadsZero(t *testing.T) {
	s := NewStore(512, 10)
	got, err := s.Read(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten sector not zero")
		}
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStore(512, 10)
	if err := s.Write(0, make([]byte, 100)); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned write err = %v", err)
	}
	if err := s.Write(9, make([]byte, 1024)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overflow write err = %v", err)
	}
	if err := s.Write(0, nil); !errors.Is(err, ErrZeroSectors) {
		t.Errorf("empty write err = %v", err)
	}
	if _, err := s.Read(9, 2); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overflow read err = %v", err)
	}
	if _, err := s.Read(0, 0); !errors.Is(err, ErrZeroSectors) {
		t.Errorf("empty read err = %v", err)
	}
}

func TestStorePartialOverwrite(t *testing.T) {
	s := NewStore(512, 10)
	s.Write(0, bytes.Repeat([]byte{1}, 1536)) // sectors 0,1,2
	s.Write(1, bytes.Repeat([]byte{2}, 512))  // overwrite sector 1
	got, _ := s.Read(0, 3)
	if got[0] != 1 || got[512] != 2 || got[1024] != 1 {
		t.Error("partial overwrite wrong")
	}
}

func TestNewStorePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewStore(0, 10) },
		func() { NewStore(513, 10) },
		func() { NewStore(512, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad store accepted")
				}
			}()
			fn()
		}()
	}
}

func TestAlignmentCopy(t *testing.T) {
	cases := []struct{ off, length, sector, want int }{
		{0, 4096, 512, 0},     // fully aligned: pure zero copy
		{0, 512, 512, 0},      //
		{100, 4096, 512, 512}, // head 412 + tail 100
		{0, 1000, 512, 488},   // tail misalignment only
		{100, 200, 512, 200},  // entirely inside one sector
		{0, 0, 512, 0},        // empty
		{512, 512, 512, 0},    // aligned offset
	}
	for _, c := range cases {
		if got := AlignmentCopy(c.off, c.length, c.sector); got != c.want {
			t.Errorf("AlignmentCopy(%d,%d,%d) = %d, want %d",
				c.off, c.length, c.sector, got, c.want)
		}
	}
}

// Property: copied bytes never exceed the buffer and aligned buffers copy 0.
func TestAlignmentCopyProperty(t *testing.T) {
	f := func(off, length uint16) bool {
		c := AlignmentCopy(int(off), int(length), 512)
		if c < 0 || c > int(length) {
			return false
		}
		if off%512 == 0 && length%512 == 0 && c != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeviceLatencyAndCompletion(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 100), 2500, 1)
	var doneAt sim.Time
	var resp Response
	d.Submit(Request{Op: OpWrite, Sector: 0, Data: make([]byte, 512)}, func(r Response) {
		doneAt = e.Now()
		resp = r
	})
	e.Run()
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if doneAt != 2500 {
		t.Errorf("completed at %v, want 2500", doneAt)
	}
}

func TestDeviceSerializesBeyondWays(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 100), 100, 2)
	var times []sim.Time
	for i := 0; i < 4; i++ {
		d.Submit(Request{Op: OpRead, Sector: 0, Sectors: 1}, func(Response) {
			times = append(times, e.Now())
		})
	}
	e.Run()
	// 2 ways: first two at 100, second two at 200.
	if len(times) != 4 || times[0] != 100 || times[1] != 100 || times[2] != 200 || times[3] != 200 {
		t.Errorf("completion times = %v", times)
	}
	if d.Served != 4 {
		t.Errorf("Served = %d", d.Served)
	}
}

func TestDeviceReadWriteData(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 100), 10, 1)
	payload := bytes.Repeat([]byte{0x5A}, 1024)
	d.Submit(Request{Op: OpWrite, Sector: 4, Data: payload}, func(r Response) {
		if r.Err != nil {
			t.Errorf("write: %v", r.Err)
		}
	})
	var got []byte
	d.Submit(Request{Op: OpRead, Sector: 4, Sectors: 2}, func(r Response) {
		if r.Err != nil {
			t.Errorf("read: %v", r.Err)
		}
		got = append([]byte(nil), r.Data...) // r.Data is borrowed
	})
	e.Run()
	if !bytes.Equal(got, payload) {
		t.Error("device round trip mismatch")
	}
}

func TestDeviceFlushAndBadOp(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 100), 10, 1)
	d.Submit(Request{Op: OpFlush}, func(r Response) {
		if r.Err != nil {
			t.Errorf("flush: %v", r.Err)
		}
	})
	d.Submit(Request{Op: Op(9)}, func(r Response) {
		if !errors.Is(r.Err, ErrBadOp) {
			t.Errorf("bad op err = %v", r.Err)
		}
	})
	e.Run()
}

func TestDeviceFailureInjection(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 100), 10, 1)
	d.FailNext = true
	d.Submit(Request{Op: OpRead, Sector: 0, Sectors: 1}, func(r Response) {
		if !errors.Is(r.Err, ErrDeviceFailed) {
			t.Errorf("err = %v, want ErrDeviceFailed", r.Err)
		}
	})
	// The next request succeeds.
	d.Submit(Request{Op: OpRead, Sector: 0, Sectors: 1}, func(r Response) {
		if r.Err != nil {
			t.Errorf("second request failed: %v", r.Err)
		}
	})
	e.Run()
}

func TestSchedulerSerializesSameBlock(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 100), 100, 8) // device itself is parallel
	s := NewScheduler(d, 512)
	var order []int
	// Two writes to the same sector: must serialize despite device ways.
	s.Submit(Request{Op: OpWrite, Sector: 5, Data: bytes.Repeat([]byte{1}, 512)},
		func(Response) { order = append(order, 1) })
	s.Submit(Request{Op: OpWrite, Sector: 5, Data: bytes.Repeat([]byte{2}, 512)},
		func(Response) { order = append(order, 2) })
	if s.Outstanding() != 1 {
		t.Errorf("Outstanding = %d, want 1 (second deferred)", s.Outstanding())
	}
	if s.Waiting() != 1 {
		t.Errorf("Waiting = %d, want 1", s.Waiting())
	}
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v", order)
	}
	if s.Deferred != 1 {
		t.Errorf("Deferred = %d", s.Deferred)
	}
	// Final content is from the second write.
	got, _ := d.Store().Read(5, 1)
	if got[0] != 2 {
		t.Error("writes applied out of order")
	}
}

func TestSchedulerAllowsDisjointParallelism(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 100), 100, 8)
	s := NewScheduler(d, 512)
	var times []sim.Time
	s.Submit(Request{Op: OpRead, Sector: 0, Sectors: 1}, func(Response) { times = append(times, e.Now()) })
	s.Submit(Request{Op: OpRead, Sector: 50, Sectors: 1}, func(Response) { times = append(times, e.Now()) })
	e.Run()
	if len(times) != 2 || times[0] != 100 || times[1] != 100 {
		t.Errorf("disjoint requests serialized: %v", times)
	}
	if s.Deferred != 0 {
		t.Errorf("Deferred = %d, want 0", s.Deferred)
	}
}

func TestSchedulerOverlappingRangeConflicts(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 100), 100, 8)
	s := NewScheduler(d, 512)
	var order []int
	// Write sectors 4..11 (4096 bytes), then read sectors 8..9 (overlap).
	s.Submit(Request{Op: OpWrite, Sector: 4, Data: make([]byte, 4096)},
		func(Response) { order = append(order, 1) })
	s.Submit(Request{Op: OpRead, Sector: 8, Sectors: 2},
		func(Response) { order = append(order, 2) })
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v (overlap must serialize)", order)
	}
}

func TestSchedulerPerRangeFIFO(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 100), 100, 8)
	s := NewScheduler(d, 512)
	var order []int
	for i := 1; i <= 4; i++ {
		i := i
		s.Submit(Request{Op: OpWrite, Sector: 7, Data: bytes.Repeat([]byte{byte(i)}, 512)},
			func(Response) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("same-sector requests reordered: %v", order)
		}
	}
	got, _ := d.Store().Read(7, 1)
	if got[0] != 4 {
		t.Errorf("final sector value = %d, want 4 (last write)", got[0])
	}
}

func TestSchedulerFlushLocksSector(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 100), 10, 1)
	s := NewScheduler(d, 512)
	done := 0
	s.Submit(Request{Op: OpFlush, Sector: 0}, func(Response) { done++ })
	s.Submit(Request{Op: OpFlush, Sector: 0}, func(Response) { done++ })
	e.Run()
	if done != 2 {
		t.Errorf("flushes completed = %d", done)
	}
}

// Property: with a scheduler, at no time do two outstanding requests overlap
// — verified by instrumenting a backend that records concurrency.
func TestSchedulerNoConcurrentOverlapProperty(t *testing.T) {
	e := sim.NewEngine()
	inflight := make(map[uint64]int)
	var violations int
	backend := backendFunc(func(req Request, done func(Response)) {
		sectors := uint64(req.Sectors)
		if req.Op == OpWrite {
			sectors = uint64(len(req.Data)+511) / 512
		}
		if sectors == 0 {
			sectors = 1
		}
		for i := uint64(0); i < sectors; i++ {
			inflight[req.Sector+i]++
			if inflight[req.Sector+i] > 1 {
				violations++
			}
		}
		e.After(50, func() {
			for i := uint64(0); i < sectors; i++ {
				inflight[req.Sector+i]--
			}
			done(Response{})
		})
	})
	s := NewScheduler(backend, 512)
	seed := uint64(99)
	next := func() uint64 { seed = seed*6364136223846793005 + 1; return seed >> 33 }
	for i := 0; i < 500; i++ {
		at := sim.Time(next() % 2000)
		sector := next() % 20
		op := OpRead
		req := Request{Op: op, Sector: sector, Sectors: int(1 + next()%8)}
		if next()%2 == 0 {
			req = Request{Op: OpWrite, Sector: sector, Data: make([]byte, 512*(1+next()%8))}
		}
		e.At(at, func() { s.Submit(req, func(Response) {}) })
	}
	e.Run()
	if violations != 0 {
		t.Errorf("%d overlapping-outstanding violations", violations)
	}
	if s.Outstanding() != 0 || s.Waiting() != 0 {
		t.Errorf("scheduler leaked state: outstanding=%d waiting=%d",
			s.Outstanding(), s.Waiting())
	}
}

type backendFunc func(req Request, done func(Response))

func (f backendFunc) Submit(req Request, done func(Response)) { f(req, done) }

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpFlush.String() != "flush" {
		t.Error("op names wrong")
	}
	if Op(7).String() != "Op(7)" {
		t.Error("unknown op misprinted")
	}
}

// TestSchedulerPerQueueFIFOProperty models the multi-queue submission shape:
// NQ closed-loop queues each keep QD writes outstanding against their own
// sector through one range-conflict Scheduler over a 4-way device. Because
// every request in a queue targets the same sector, the scheduler serializes
// them — and its drain must hand them to the device strictly in submission
// order, at any depth.
func TestSchedulerPerQueueFIFOProperty(t *testing.T) {
	const queues = 4
	for _, depth := range []int{2, 8, 16} {
		e := sim.NewEngine()
		s := NewScheduler(NewDevice(e, NewStore(512, 64), 100, 4), 512)
		const perQueue = 200
		issued := make([]int, queues)    // next sequence number to issue
		completed := make([]int, queues) // next sequence number expected back
		violations := 0
		var issue func(q int)
		issue = func(q int) {
			if issued[q] >= perQueue {
				return
			}
			seq := issued[q]
			issued[q]++
			s.Submit(Request{Op: OpWrite, Sector: uint64(q), Data: make([]byte, 512)},
				func(Response) {
					if seq != completed[q] {
						violations++
					}
					completed[q]++
					issue(q)
				})
		}
		for q := 0; q < queues; q++ {
			for d := 0; d < depth; d++ {
				issue(q)
			}
		}
		e.Run()
		if violations != 0 {
			t.Errorf("depth %d: %d out-of-order completions across %d queues",
				depth, violations, queues)
		}
		for q := 0; q < queues; q++ {
			if completed[q] != perQueue {
				t.Errorf("depth %d: queue %d completed %d of %d requests",
					depth, q, completed[q], perQueue)
			}
		}
		if s.Outstanding() != 0 || s.Waiting() != 0 {
			t.Errorf("depth %d: scheduler leaked state: outstanding=%d waiting=%d",
				depth, s.Outstanding(), s.Waiting())
		}
	}
}
