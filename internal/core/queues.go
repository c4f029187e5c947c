package core

import (
	"vrio/internal/bufpool"
	"vrio/internal/sim"
	"vrio/internal/virtio"
)

// Queue geometry for the paravirtual devices: 256 descriptors, each naming
// one whole buffer; 128 receive buffers of 2 KiB, which hold a plain
// Ethernet frame; and TX frames posted one descriptor per 2 KiB page, as a
// guest driver posts a frame that spans pages, so a jumbo frame takes
// several descriptors of the TX ring.
const (
	queueSize   = 256
	rxBuffers   = 128
	rxBufferLen = 2048
	txPage      = 2048
)

// netQueues is the guest/host shared-memory state of one paravirtual net
// device: a TX virtqueue carrying guest frames out, and an RX virtqueue the
// guest stocks with empty buffers for the host to fill — both real
// byte-level rings (package virtio), exactly the structures Elvis polls and
// the baseline kicks. Frames cross either ring as pool slabs handed over
// with their ownership, never copied.
type netQueues struct {
	tx *virtio.Ring
	rx *virtio.Ring
	// rxFree are the heads of host-side pre-popped guest buffers awaiting
	// frames, filled oldest first (an rx chain is one writable descriptor
	// and carries no out buffer). It holds at most rxBuffers.
	rxFree sim.FIFO[uint16]
	// RxDrops counts frames dropped for want of guest rx buffers.
	RxDrops uint64
	// reap is the reusable completion batch (TX and RX reaps are fully
	// consumed before returning, so one batch serves both); pop is the
	// scratch chain for the immediate-push TX drain, and pages the scratch
	// list of a TX frame's pages.
	reap  virtio.ReapBatch
	pop   virtio.Chain
	pages [][]byte
}

// newNetQueues builds the device's rings.
func newNetQueues() *netQueues {
	tx, err := virtio.NewRing(queueSize)
	if err != nil {
		panic(err)
	}
	rx, err := virtio.NewRing(queueSize)
	if err != nil {
		panic(err)
	}
	q := &netQueues{tx: tx, rx: rx, rxFree: sim.NewFIFO[uint16](rxBuffers)}
	q.stockRx(rxBuffers)
	return q
}

// stockRx posts n empty receive buffers (guest side) and pre-pops them
// (host side) so the host can fill them on frame arrival; a full ring
// stocks fewer.
func (q *netQueues) stockRx(n int) { q.rx.StockIn(n, rxBufferLen, q.rxFree.Push) }

// guestSend hands an encoded frame, a pool slab, to the TX ring, one
// descriptor per page. It reports whether the ring had room (a full ring
// drops, as a real overloaded virtio device does); the guest keeps a frame
// the ring refused.
func (q *netQueues) guestSend(frame []byte) bool {
	q.pages = q.pages[:0]
	for off := 0; off < len(frame); off += txPage {
		q.pages = append(q.pages, frame[off:min(off+txPage, len(frame))])
	}
	_, err := q.tx.Add(q.pages)
	return err == nil
}

// hostPopTx takes the next pending TX frame (host side), handed over by
// the ring: the caller owns it and releases it. Its pages are consecutive
// views of one slab, so the frame is the first page extended over them,
// never past that slab even when a corrupt descriptor table mixed in pages
// of other frames. The scratch chain is reusable because it is pushed back
// before the next pop.
func (q *netQueues) hostPopTx() ([]byte, bool) {
	ok, err := q.tx.PopInto(&q.pop)
	if err != nil || !ok {
		return nil, false
	}
	var frame []byte
	if out := q.pop.Out; len(out) > 0 {
		n := 0
		for _, page := range out {
			n += len(page)
		}
		frame = out[0][:min(n, cap(out[0]))]
	}
	q.tx.Push(q.pop)
	return frame, true
}

// guestReapTx frees completed TX descriptors (guest side).
func (q *netQueues) guestReapTx() { q.tx.ReapInto(&q.reap, 0) }

// hostDeliver hands the frame, a pool slab, to the oldest free guest rx
// buffer (host side). False means no buffer was free: the frame is dropped
// and stays the caller's.
func (q *netQueues) hostDeliver(frame []byte) bool {
	if q.rxFree.Len() == 0 {
		q.RxDrops++
		return false
	}
	q.rx.Push(virtio.Chain{Head: q.rxFree.Pop()}, frame)
	return true
}

// guestReapRx collects received frames and restocks the buffers. Each
// completion's In holds the frame the ring hands over to the guest, which
// releases it (an rx chain has one writable descriptor). The completions
// are valid until the next reap.
func (q *netQueues) guestReapRx() []virtio.Completion {
	if n := q.rx.ReapInto(&q.reap, 0); n > 0 {
		q.stockRx(n)
	}
	return q.reap.Completions
}

// blkQueue is the shared-memory state of one paravirtual block device: a
// single virtqueue whose chains carry, as virtio-blk lays them out, the
// request header, a write's payload in a descriptor of its own, a
// writable descriptor for a read's data and a last one for the status.
type blkQueue struct {
	ring *virtio.Ring
	pool *bufpool.Pool
	// done routes each posted chain's reply to its submitter, indexed by
	// chain head (heads are below the ring's queue size).
	done []func(status, data []byte, err error)
	// reap is the reusable completion batch for guestReap; reapFn is
	// guestReap bound once, for completion interrupts.
	reap   virtio.ReapBatch
	reapFn func()
}

// newBlkQueue builds the ring of a block device whose buffers come from
// pool.
func newBlkQueue(pool *bufpool.Pool) *blkQueue {
	ring, err := virtio.NewRing(queueSize)
	if err != nil {
		panic(err)
	}
	q := &blkQueue{ring: ring, pool: pool, done: make([]func([]byte, []byte, error), ring.QueueSize())}
	q.reapFn = q.guestReap
	return q
}

// guestSubmit hands op's request slabs (op.req, then op.data when it has
// one) to the ring, reserving a descriptor of op.readLen bytes for a read's
// data and one byte for the status; the reply goes to op.replyFn. It
// reports whether the ring had room; a full ring fails the op with
// virtio.ErrRingFull and returns its slabs to the pool.
func (q *blkQueue) guestSubmit(op *blkOp) bool {
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
	head, err := q.ring.Add(out[:n], in[k:]...)
	if err != nil {
		for _, b := range out[:n] {
			q.pool.PutRaw(b)
		}
		op.replyFn(nil, nil, virtio.ErrRingFull)
		return false
	}
	q.done[head] = op.replyFn
	return true
}

// guestReap collects completed requests and hands each reply to its
// submitter, releasing its buffers once the submitter returns. The status
// is the last buffer the host wrote and a read's data the one before it.
func (q *blkQueue) guestReap() {
	q.ring.ReapInto(&q.reap, 0)
	for _, comp := range q.reap.Completions {
		if done := q.done[comp.Head]; done != nil {
			q.done[comp.Head] = nil
			var status, data []byte
			if n := len(comp.In); n > 0 {
				status = comp.In[n-1]
				if n > 1 {
					data = comp.In[n-2]
				}
			}
			done(status, data, nil)
		}
		for _, b := range comp.In {
			q.pool.PutRaw(b)
		}
	}
}

// releaseChain returns the buffers of a chain the host has answered to
// pool.
func releaseChain(pool *bufpool.Pool, c *virtio.Chain) {
	for _, b := range c.Out {
		pool.PutRaw(b)
	}
}
