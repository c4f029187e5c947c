package virtio

import (
	"encoding/binary"
	"errors"

	"vrio/internal/blockdev"
	"vrio/internal/bufpool"
	"vrio/internal/interpose"
	"vrio/internal/sim"
	"vrio/internal/stats"
)

// BlkServer is the paravirtual block back end of one device. The baseline,
// Elvis and vRIO models all run it (§2–§4): it decodes a request,
// interposes it toward the device, submits it to the backend, interposes
// the result toward the guest and encodes the reply. What differs between
// the models is left to a BlkSite.
type BlkServer struct {
	Backend blockdev.Backend
	Chain   *interpose.Chain
	// Device is the device id the chain sees.
	Device uint16
	// Replica serves the versioned BlkVolOut/BlkVolIn ops; other devices
	// answer them BlkUnsupp.
	Replica bool
	Cost    BlkCost
	// Pool lends the slabs read data is copied into, which Reply hands
	// over; nil gives the server a private one.
	Pool *bufpool.Pool
	// Counters, when set, counts blk_reqs (decoded requests), bad_msgs
	// (undecodable ones), interpose_drops (writes the chain refused) and
	// copy_bytes (the bytes Cost copies).
	Counters *stats.Counters

	ops *bufpool.List[blkOp]
}

// BlkCost is a model's block back-end CPU cost, charged on its site's core
// on top of the interposition chain's own cost.
type BlkCost struct {
	// Service is charged before every backend submission.
	Service sim.Time
	// PerByte is charged per copied byte: a write's payload before the
	// backend, a read's data after it.
	PerByte float64
	// WriteCopy gives how many bytes of an n-byte write are copied; nil
	// copies all of them.
	WriteCopy func(n int) int
}

// BlkSite is one request's view of the host serving it: the part of the
// back end the I/O models do differently. Each charges the work on its own
// core (the vhost core, a sidecore, an IOhost worker) and tells the guest of
// the completion its own way (an injected IRQ, an exitless IPI, a transport
// response).
type BlkSite interface {
	// Charge runs fn after cost of CPU time on the serving core. cost is
	// always positive.
	Charge(cost sim.Time, fn func())
	// Completed runs when the backend has finished the request, before its
	// reply is built.
	Completed()
	// Reply delivers the reply, which the guest sees as status, then data.
	// status is the status byte, read-only: one of the server's static
	// bytes, which PutRaw declines, except for a BlkVolIn reply, whose
	// status is followed by the replica's version in the server's
	// per-request state, valid only during the call (only the vRIO IOhost
	// serves those). data
	// is a successful read's data, nil for any other reply: a slab of the
	// server's Pool of exactly the data's length, handed over, which the
	// site releases with PutRaw once done. Reply is the request's last
	// hook.
	Reply(status, data []byte)
}

// Serve serves one request, whose bytes arrive in bufs: the encoded request
// in the first and, from a ring whose write payload has a descriptor of its
// own, that payload in the second. The bytes must stay valid until Serve
// returns or, for a write it submits, until Completed. Serve reports the
// backend op it submitted; ok is false when the request was answered
// without reaching the backend. Backend completions are asynchronous, so
// Completed never runs before Serve returns.
func (s *BlkServer) Serve(site BlkSite, bufs ...[]byte) (op blockdev.Op, ok bool) {
	r, err := BlkReq{}, ErrShortHeader
	if len(bufs) > 0 {
		r, err = DecodeBlkReq(bufs[0])
	}
	if len(bufs) > 1 {
		r.Data = bufs[1]
	}
	if err != nil {
		s.count("bad_msgs", 1)
		site.Reply(statusReply(BlkIOErr), nil)
		return 0, false
	}
	s.count("blk_reqs", 1)
	switch {
	case r.Type == BlkOut:
		op = blockdev.OpWrite
	case r.Type == BlkIn:
		op = blockdev.OpRead
	case r.Type == BlkFlush:
		op = blockdev.OpFlush
	case r.Type == BlkVolOut && s.Replica:
		op = blockdev.OpVolWrite
	case r.Type == BlkVolIn && s.Replica:
		op = blockdev.OpVolRead
	default:
		site.Reply(statusReply(BlkUnsupp), nil)
		return 0, false
	}
	cost := s.Cost.Service
	var data []byte
	if op == blockdev.OpWrite || op == blockdev.OpVolWrite {
		var icost sim.Time
		data, icost, err = s.Chain.Process(interpose.ToDevice, s.Device, r.Data)
		if err != nil {
			s.count("interpose_drops", 1)
			site.Reply(statusReply(BlkIOErr), nil)
			return 0, false
		}
		copied := len(data)
		if s.Cost.WriteCopy != nil {
			copied = s.Cost.WriteCopy(copied)
		}
		cost += icost + s.copyCost(copied)
	}
	o := s.getOp()
	o.site = site
	o.req = blockdev.Request{Op: op, Sector: r.Sector, Data: data, Sectors: r.Sectors, Extent: r.Extent, Version: r.Version}
	s.charge(site, cost, o.submitFn)
	return op, true
}

// blkOp is one request between backend submission and reply. Ops are
// recycled through BlkServer.ops with prebound callbacks, so serving a
// request does not allocate.
type blkOp struct {
	s    *BlkServer
	site BlkSite
	req  blockdev.Request
	// status and data are a read's reply, built while the backend's data is
	// lent; a BlkVolIn reply's status is hdr, the status and the version.
	status, data []byte
	hdr          [1 + VolReadVerSize]byte

	submitFn func()
	doneFn   func(blockdev.Response)
	replyFn  func()
}

func (s *BlkServer) getOp() *blkOp {
	if s.ops == nil {
		s.ops = bufpool.NewList("virtio blk ops", s.newOp)
	}
	return s.ops.Get()
}

func (s *BlkServer) newOp() *blkOp {
	o := &blkOp{s: s}
	o.submitFn = func() { s.Backend.Submit(o.req, o.doneFn) }
	o.doneFn = o.complete
	o.replyFn = func() { o.reply(o.status, o.data) }
	return o
}

// reply delivers the reply, then recycles the op, whose hdr a BlkVolIn
// status lives in.
func (o *blkOp) reply(status, data []byte) {
	o.site.Reply(status, data)
	*o = blkOp{s: o.s, submitFn: o.submitFn, doneFn: o.doneFn, replyFn: o.replyFn}
	o.s.ops.Put(o)
}

// complete finishes a request the backend has served.
func (o *blkOp) complete(resp blockdev.Response) {
	s := o.s
	o.site.Completed()
	if resp.Err != nil || (o.req.Op != blockdev.OpRead && o.req.Op != blockdev.OpVolRead) {
		o.reply(statusReply(blkStatus(resp.Err)), nil)
		return
	}
	data, icost, err := s.Chain.Process(interpose.ToGuest, s.Device, resp.Data)
	if err != nil {
		o.reply(statusReply(BlkIOErr), nil)
		return
	}
	// resp.Data is lent until this callback returns, so the data is copied
	// now, into a slab of its own: the reply's one copy.
	if s.Pool == nil {
		s.Pool = bufpool.New()
	}
	o.data = s.Pool.Clone(data)
	o.status = statusReply(BlkOK)
	if o.req.Op == blockdev.OpVolRead {
		o.hdr[0] = BlkOK
		binary.LittleEndian.PutUint64(o.hdr[1:], resp.Version)
		o.status = o.hdr[:]
	}
	s.charge(o.site, icost+s.copyCost(len(data)), o.replyFn)
}

// charge runs fn after cost on the site's core, or directly when the cost
// is zero.
func (s *BlkServer) charge(site BlkSite, cost sim.Time, fn func()) {
	if cost > 0 {
		site.Charge(cost, fn)
		return
	}
	fn()
}

// copyCost counts n copied bytes and returns their cost.
func (s *BlkServer) copyCost(n int) sim.Time {
	if n > 0 {
		s.count("copy_bytes", uint64(n))
	}
	return sim.Time(s.Cost.PerByte * float64(n))
}

func (s *BlkServer) count(name string, n uint64) {
	if s.Counters != nil {
		s.Counters.Inc(name, n)
	}
}

// blkStatus maps a backend completion error to its status byte. Version
// fencing (a stale writer, or a replica behind the reader's committed
// minimum) answers BlkStale, and a replica that provably missed an earlier
// write answers BlkGap, so the volume router can tell "retry elsewhere" and
// "heal this replica" from an I/O failure. Plain ops never fail with these.
func blkStatus(err error) byte {
	switch {
	case err == nil:
		return BlkOK
	case errors.Is(err, blockdev.ErrStaleWrite), errors.Is(err, blockdev.ErrStaleReplica):
		return BlkStale
	case errors.Is(err, blockdev.ErrVersionGap):
		return BlkGap
	default:
		return BlkIOErr
	}
}

// statusBytes backs the status-only replies, indexed by status.
var statusBytes = [...]byte{BlkOK, BlkIOErr, BlkUnsupp, BlkStale, BlkGap}

// statusReply returns the read-only one-byte reply carrying status st.
func statusReply(st byte) []byte { return statusBytes[st : st+1 : st+1] }
