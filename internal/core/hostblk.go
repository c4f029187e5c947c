package core

import (
	"vrio/internal/blockdev"
	"vrio/internal/bufpool"
	"vrio/internal/cpu"
	"vrio/internal/hypervisor"
	"vrio/internal/interpose"
	"vrio/internal/sim"
	"vrio/internal/virtio"
)

// hostBlk is the host half of a baseline or Elvis guest's paravirtual block
// device: its virtqueue, whose chains carry, as virtio-blk lays them out,
// the request header, a write's payload in a descriptor of its own, a
// writable descriptor for a read's data and a last one for the status; and
// its back end. It is served by the guest's hostNet's core, billing its
// owner, and notifies the guest the way hostNet does. Both models serve it
// with one pipeline and differ only in the four things their AddVM sets:
// the service cost, the per-byte copy cost (srv.Cost.PerByte), the kick and
// whether a completion first takes a host interrupt.
type hostBlk struct {
	n    *hostNet
	ring *virtio.Ring
	srv  virtio.BlkServer

	// cost is charged on the serving core per request popped, before the
	// back end serves it.
	cost sim.Time
	// kick tells the host that a request is on the ring.
	kick func()
	// hostIRQ routes each completion through a host interrupt on the
	// serving core before the guest is notified.
	hostIRQ bool
	// irqq holds the replies waiting out that interrupt, for irqFn; the
	// core completes work in order, so the k-th interrupt takes the k-th.
	irqq sim.FIFO[hostBlkReply]

	// done routes each posted chain's reply to its submitter, indexed by
	// chain head (heads are below the ring's queue size).
	done []func(status, data []byte, err error)
	// reap is the reusable completion batch for guestReap. reapFn is
	// guestReap, serveNextFn serveNext and irqFn the completion of irqq's
	// oldest reply, bound once.
	reap                       virtio.ReapBatch
	reapFn, serveNextFn, irqFn func()
	// reqs recycles the requests' sites and the chains they own.
	reqs *bufpool.List[hostBlkReq]
}

// hostBlkReq is the virtio.BlkSite of one request. It owns the chain its
// request was popped into and the request buffers the ring handed over
// until complete recycles them; serveFn runs the request through the back
// end.
type hostBlkReq struct {
	b       *hostBlk
	c       virtio.Chain
	serveFn func()
}

// hostBlkReply is a reply waiting out the host interrupt: the data, handed
// over, and the status, a static byte.
type hostBlkReply struct {
	r            *hostBlkReq
	status, data []byte
}

// newHostBlk gives the guest of n (device id id) a block device backed by
// backend, with chain (optional) interposing on its traffic, and wires the
// guest's block front end to it. The caller sets the model's four values.
func newHostBlk(n *hostNet, id int, backend blockdev.Backend, chain *interpose.Chain) *hostBlk {
	if chain == nil {
		chain = interpose.NewChain()
	}
	ring, err := virtio.NewRing(queueSize)
	if err != nil {
		panic(err)
	}
	g := n.g
	b := &hostBlk{
		n: n, ring: ring,
		srv:  virtio.BlkServer{Backend: backend, Chain: chain, Device: uint16(id), Pool: g.pool},
		done: make([]func([]byte, []byte, error), ring.QueueSize()),
	}
	b.reapFn = b.guestReap
	b.serveNextFn = func() { b.serveNext() }
	b.irqFn = func() {
		rep := b.irqq.Pop()
		b.complete(rep.r, rep.status, rep.data)
	}
	b.reqs = bufpool.NewList("core host blk reqs", func() *hostBlkReq {
		r := &hostBlkReq{b: b}
		r.serveFn = func() { b.srv.Serve(r, r.c.Out...) }
		return r
	})
	g.blk = b
	g.blkPost = b.post
	g.blkStackCost = func(int) sim.Time { return n.p.GuestNetStackCost }
	g.blkBadStatus = blockdev.ErrDeviceFailed
	return b
}

// post hands op's request slabs (op.req, then op.data when it has one) to
// the ring, reserving a descriptor of op.readLen bytes for a read's data
// and one byte for the status, and kicks the host; the reply goes to
// op.replyFn. A full ring fails the op with virtio.ErrRingFull and returns
// its slabs to the pool.
func (b *hostBlk) post(op *blkOp) {
	out := [2][]byte{op.req, op.data}
	n := 1
	if op.data != nil {
		n = 2
	}
	in, k := [2]int{op.readLen, 1}, 1
	if op.readLen > 0 {
		k = 0
	}
	op.req, op.data = nil, nil
	head, err := b.ring.Add(out[:n], in[k:]...)
	if err != nil {
		for _, buf := range out[:n] {
			b.n.g.pool.PutRaw(buf)
		}
		op.replyFn(nil, nil, virtio.ErrRingFull)
		return
	}
	b.done[head] = op.replyFn
	b.kick()
}

// serveNext pops the next request, if any, and charges its service cost on
// the serving core, which then serves it. It reports whether there was one.
func (b *hostBlk) serveNext() bool {
	r := b.reqs.Get()
	if ok, err := b.ring.PopInto(&r.c); err != nil || !ok {
		b.reqs.Put(r)
		return false
	}
	b.n.core.Exec(b.n.owner, cpu.KindBusy, b.cost, r.serveFn)
	return true
}

// Charge implements virtio.BlkSite.
func (r *hostBlkReq) Charge(cost sim.Time, fn func()) {
	r.b.n.core.Exec(r.b.n.owner, cpu.KindBusy, cost, fn)
}

// Completed implements virtio.BlkSite.
func (r *hostBlkReq) Completed() {}

// Reply implements virtio.BlkSite: it completes the chain, after a host
// interrupt on the serving core when the model takes one.
func (r *hostBlkReq) Reply(status, data []byte) {
	b := r.b
	if !b.hostIRQ {
		b.complete(r, status, data)
		return
	}
	b.irqq.Push(hostBlkReply{r, status, data})
	n := b.n
	hypervisor.HostIRQ(n.core, n.p, &n.g.VM.Counters, hypervisor.CounterHostIRQs, b.irqFn)
}

// complete hands the data, when there is any, and the status to r's
// chain's writable descriptors, releases the request buffers, recycles the
// site and notifies the guest.
func (b *hostBlk) complete(r *hostBlkReq, status, data []byte) {
	b.ring.Push(r.c, data, status)
	for _, buf := range r.c.Out {
		b.n.g.pool.PutRaw(buf)
	}
	b.reqs.Put(r)
	b.n.notify(b.reapFn)
}

// guestReap collects completed requests and hands each reply to its
// submitter, releasing its buffers once the submitter returns. The status
// is the last buffer the host wrote and a read's data the one before it.
func (b *hostBlk) guestReap() {
	b.ring.ReapInto(&b.reap, 0)
	for _, comp := range b.reap.Completions {
		if done := b.done[comp.Head]; done != nil {
			b.done[comp.Head] = nil
			var status, data []byte
			if n := len(comp.In); n > 0 {
				status = comp.In[n-1]
				if n > 1 {
					data = comp.In[n-2]
				}
			}
			done(status, data, nil)
		}
		for _, buf := range comp.In {
			b.n.g.pool.PutRaw(buf)
		}
	}
}
