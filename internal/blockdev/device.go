package blockdev

import (
	"fmt"

	"vrio/internal/bufpool"
	"vrio/internal/sim"
)

// Op is a block request operation.
type Op uint8

// Operations. OpVolWrite/OpVolRead are the distributed-volume variants of
// write/read: they carry an extent id and version and are only served by
// devices that have a ReplicaState attached (see AttachReplica).
const (
	OpRead Op = iota
	OpWrite
	OpFlush
	OpVolWrite
	OpVolRead
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	case OpVolWrite:
		return "vol-write"
	case OpVolRead:
		return "vol-read"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Request is one block I/O request.
type Request struct {
	Op     Op
	Sector uint64
	// Data is the payload for writes.
	Data []byte
	// Sectors is the read length in sectors.
	Sectors int
	// Extent and Version qualify OpVolWrite/OpVolRead requests: Extent names
	// the stripe unit, Version the writer's per-extent counter (for reads,
	// the minimum committed version the replica must hold).
	Extent  uint64
	Version uint64
}

// Response is a completed request.
type Response struct {
	Err error
	// Data holds read results. It is lent, read-only: the backend may
	// reuse or overwrite the bytes once the completion callback returns (a
	// Device lends a read inside one page straight from its store), so a
	// consumer that needs them later (a deferred reply, a cache) copies them
	// inside the callback, and nothing writes them.
	Data []byte
	// Version is the replica's extent version at serve time, set on
	// successful OpVolRead completions. Rebuild and heal copies stamp their
	// target with it — never with a version the served data might not hold.
	Version uint64
}

// Backend is anything that serves block requests asynchronously: a local
// Device, or a vRIO remote device behind the transport. A Response's Data
// is valid only until done returns.
type Backend interface {
	Submit(req Request, done func(Response))
}

// Device serves requests from a Store after a per-request access latency,
// with bounded internal parallelism (channels/banks). A ramdisk profile has
// microsecond latency; an SSD profile tens of microseconds (§5 uses both).
type Device struct {
	eng     *sim.Engine
	store   *Store
	latency sim.Time
	ways    int // parallel banks

	// inService holds the requests occupying banks in start order. Every
	// request waits the same latency, and the engine runs same-instant
	// events in scheduling order, so they complete in that order too: one
	// prebound completion event (finishFn) serves them all without a
	// per-request closure.
	inService sim.FIFO[queued]
	waiting   sim.FIFO[queued]
	finishFn  func()

	// replica, when non-nil, lets the device serve OpVolWrite/OpVolRead
	// with per-extent version checks (see AttachReplica).
	replica *ReplicaState

	// rbuf is the read buffer a read that crosses a page boundary fills and
	// lends to its completion callback. Reads execute one event at a time
	// and the callback runs right after, so one buffer serves every bank.
	rbuf []byte

	// FailNext injects a failure into the next request (fault testing).
	FailNext bool

	// Served counts completed requests.
	Served uint64
}

type queued struct {
	req  Request
	done func(Response)
}

// NewDevice builds a device over store. ways is the internal parallelism
// (>=1); latency is per-request access time.
func NewDevice(eng *sim.Engine, store *Store, latency sim.Time, ways int) *Device {
	if ways < 1 {
		panic("blockdev: device needs at least one way")
	}
	if latency < 0 {
		panic("blockdev: negative latency")
	}
	d := &Device{eng: eng, store: store, latency: latency, ways: ways}
	d.finishFn = d.finish
	return d
}

// Store exposes the backing store (for test setup and verification).
func (d *Device) Store() *Store { return d.store }

// AttachReplica turns the device into a volume replica: OpVolWrite and
// OpVolRead become servable, gated by rs's per-extent version counters.
// Plain OpRead/OpWrite keep working (rebuild verification reads use them).
func (d *Device) AttachReplica(rs *ReplicaState) {
	if rs == nil {
		panic("blockdev: AttachReplica requires a ReplicaState")
	}
	d.replica = rs
}

// QueueLen reports requests waiting for a free bank.
func (d *Device) QueueLen() int { return d.waiting.Len() }

// InFlight reports requests currently occupying a bank. QueueLen alone
// under-reports device load: a device with every bank busy but an empty
// backlog shows 0 there, so rebalancers and the metrics rollup also need
// the in-service count.
func (d *Device) InFlight() int { return d.inService.Len() }

// Submit implements Backend.
func (d *Device) Submit(req Request, done func(Response)) {
	if done == nil {
		panic("blockdev: Submit requires a completion callback")
	}
	if d.inService.Len() >= d.ways {
		d.waiting.Push(queued{req, done})
		return
	}
	d.start(queued{req, done})
}

func (d *Device) start(q queued) {
	d.inService.Push(q)
	d.eng.After(d.latency, d.finishFn)
}

// finish completes the oldest request in service.
func (d *Device) finish() {
	q := d.inService.Pop()
	resp := d.execute(q.req)
	d.Served++
	if d.waiting.Len() > 0 {
		d.start(d.waiting.Pop())
	}
	q.done(resp)
}

func (d *Device) execute(req Request) Response {
	if d.FailNext {
		d.FailNext = false
		return Response{Err: ErrDeviceFailed}
	}
	switch req.Op {
	case OpWrite:
		return Response{Err: d.store.Write(req.Sector, req.Data)}
	case OpRead:
		data, err := d.read(req.Sector, req.Sectors)
		return Response{Err: err, Data: data}
	case OpFlush:
		return Response{} // the in-memory store is always durable
	case OpVolWrite:
		if d.replica == nil {
			return Response{Err: ErrNotReplica}
		}
		cur := d.replica.Version(req.Extent)
		full := d.replica.CoversExtent(req.Extent, req.Sector, len(req.Data), d.store.SectorSize())
		switch {
		case req.Version < cur, !full && req.Version == cur:
			// Older than (or, for a partial write, a duplicate of) what the
			// replica holds: a stale writer (e.g. a rebuild copy outrun by
			// foreground writes). Accepting it would roll the extent back.
			return Response{Err: fmt.Errorf("%w: extent %d has v%d, write carries v%d",
				ErrStaleWrite, req.Extent, cur, req.Version)}
		case !full && req.Version > cur+1:
			// The replica missed version cur+1..req.Version-1. A sub-extent
			// write must not advance the fence past the gap — the missed
			// sectors would then read back stale with a clean status. Only a
			// full-extent write (rebuild/heal copy, or a whole-extent
			// overwrite), which replaces every byte, may jump.
			return Response{Err: fmt.Errorf("%w: extent %d has v%d, write carries v%d",
				ErrVersionGap, req.Extent, cur, req.Version)}
		}
		if err := d.store.Write(req.Sector, req.Data); err != nil {
			return Response{Err: err}
		}
		d.replica.Advance(req.Extent, req.Version)
		return Response{}
	case OpVolRead:
		if d.replica == nil {
			return Response{Err: ErrNotReplica}
		}
		// The reader demands at least the committed version it knows about;
		// a replica that missed a write (crash, rebuild copy in flight)
		// must refuse rather than serve stale sectors.
		if d.replica.Version(req.Extent) < req.Version {
			return Response{Err: fmt.Errorf("%w: extent %d has v%d, read demands v%d",
				ErrStaleReplica, req.Extent, d.replica.Version(req.Extent), req.Version)}
		}
		data, err := d.read(req.Sector, req.Sectors)
		return Response{Err: err, Data: data, Version: d.replica.Version(req.Extent)}
	default:
		return Response{Err: fmt.Errorf("%w: %d", ErrBadOp, req.Op)}
	}
}

// read returns n sectors from sector on, lent (see Response.Data): a range
// inside one page is the store's own bytes, and any other is copied into
// the device's read buffer.
func (d *Device) read(sector uint64, n int) ([]byte, error) {
	if err := d.store.checkRead(sector, n); err != nil {
		return nil, err
	}
	size := n * d.store.sectorSize
	if b := d.store.lend(sector, size); b != nil {
		return b, nil
	}
	if cap(d.rbuf) < size {
		d.rbuf = make([]byte, size)
	}
	buf := d.rbuf[:size]
	d.store.copyOut(buf, sector)
	return buf, nil
}

// Scheduler is the guest OS disk scheduler (§4.5): it reorders requests so
// each sector range has at most one outstanding request, queueing
// conflicting requests until the outstanding one completes. This is what
// makes blind retransmission of block requests safe.
//
// Requests travel in ops recycled through a bufpool.List with their
// completion bound once, and ranges are checked against short slices rather than per-sector
// sets, so scheduling does not allocate in steady state.
type Scheduler struct {
	backend    Backend
	sectorSize int
	// active holds the requests at the backend; their ranges are disjoint.
	active []*schedOp
	// waiting holds deferred requests in submission order.
	waiting []*schedOp
	// blocked is drain's scratch list of the ranges of requests still
	// waiting, kept across calls so draining never allocates.
	blocked []sectorRange
	ops     *bufpool.List[schedOp]

	// Deferred counts requests that had to wait for an overlapping range.
	Deferred uint64
}

// sectorRange is the half-open sector range [lo, hi).
type sectorRange struct{ lo, hi uint64 }

// overlaps reports whether r and o share a sector.
func (r sectorRange) overlaps(o sectorRange) bool { return r.lo < o.hi && o.lo < r.hi }

// schedOp is one request inside the scheduler, from Submit until the
// backend completes it.
type schedOp struct {
	s      *Scheduler
	req    Request
	done   func(Response)
	r      sectorRange
	doneFn func(Response) // complete, bound once
}

// NewScheduler wraps a backend. sectorSize must match the backing device's.
func NewScheduler(backend Backend, sectorSize int) *Scheduler {
	if sectorSize <= 0 {
		panic("blockdev: scheduler needs a positive sector size")
	}
	s := &Scheduler{backend: backend, sectorSize: sectorSize}
	s.ops = bufpool.NewList("blockdev sched ops", func() *schedOp {
		o := &schedOp{s: s}
		o.doneFn = o.complete
		return o
	})
	return s
}

// span is the sector range a request locks: a flush locks its sector, and
// every other request at least one.
func (s *Scheduler) span(req Request) sectorRange {
	n := uint64(req.Sectors)
	if req.Op == OpWrite || req.Op == OpVolWrite {
		n = uint64((len(req.Data) + s.sectorSize - 1) / s.sectorSize)
	}
	if req.Op == OpFlush || n == 0 {
		n = 1
	}
	return sectorRange{req.Sector, req.Sector + n}
}

// conflict reports whether r overlaps a request at the backend.
func (s *Scheduler) conflict(r sectorRange) bool {
	for _, o := range s.active {
		if o.r.overlaps(r) {
			return true
		}
	}
	return false
}

// Submit dispatches or defers the request.
func (s *Scheduler) Submit(req Request, done func(Response)) {
	o := s.ops.Get()
	o.req, o.done, o.r = req, done, s.span(req)
	if s.conflict(o.r) {
		s.Deferred++
		s.waiting = append(s.waiting, o)
		return
	}
	s.dispatch(o)
}

func (s *Scheduler) dispatch(o *schedOp) {
	s.active = append(s.active, o)
	s.backend.Submit(o.req, o.doneFn)
}

// complete unlocks o's range, dispatches what that unblocks, recycles o and
// hands the response to o's submitter.
func (o *schedOp) complete(resp Response) {
	s := o.s
	for i, a := range s.active {
		if a == o {
			last := len(s.active) - 1
			s.active[i] = s.active[last]
			s.active[last] = nil
			s.active = s.active[:last]
			break
		}
	}
	done := o.done
	*o = schedOp{s: s, doneFn: o.doneFn}
	s.ops.Put(o)
	s.drain()
	done(resp)
}

// drain re-attempts deferred requests in order, preserving per-range FIFO.
func (s *Scheduler) drain() {
	if len(s.waiting) == 0 {
		return
	}
	s.blocked = s.blocked[:0]
	remaining := s.waiting[:0]
	for _, o := range s.waiting {
		// Preserve ordering: if an earlier deferred request overlaps this
		// range, this one must keep waiting even if the range is free.
		blockedByEarlier := false
		for _, b := range s.blocked {
			if b.overlaps(o.r) {
				blockedByEarlier = true
				break
			}
		}
		if !blockedByEarlier && !s.conflict(o.r) {
			s.dispatch(o)
			continue
		}
		s.blocked = append(s.blocked, o.r)
		remaining = append(remaining, o)
	}
	clear(s.waiting[len(remaining):])
	s.waiting = remaining
}
