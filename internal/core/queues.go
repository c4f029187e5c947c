package core

import (
	"vrio/internal/sim"
	"vrio/internal/virtio"
)

// Queue geometry for the paravirtual devices. 256 descriptors of 2 KiB
// cover plain Ethernet frames in one segment and 4 KiB block payloads in a
// short chain.
const (
	queueSize   = 256
	segmentSize = 2048
	rxBuffers   = 128
	rxBufferLen = 2048
)

// netQueues is the guest/host shared-memory state of one paravirtual net
// device: a TX virtqueue carrying guest frames out, and an RX virtqueue the
// guest stocks with empty buffers for the host to fill — both real
// byte-level rings (package virtio), exactly the structures Elvis polls and
// the baseline kicks.
type netQueues struct {
	tx *virtio.Ring
	rx *virtio.Ring
	// rxFree are host-side pre-popped guest buffers awaiting frames, filled
	// oldest first.
	rxFree sim.FIFO[virtio.Chain]
	// RxDrops counts frames dropped for want of guest rx buffers.
	RxDrops uint64
	// reap is the reusable completion batch (TX and RX reaps are fully
	// consumed before returning, so one batch serves both); pop is the
	// scratch chain for the immediate-push TX drain.
	reap virtio.ReapBatch
	pop  virtio.Chain
}

func newNetQueues() *netQueues {
	tx, err := virtio.NewRing(queueSize, segmentSize)
	if err != nil {
		panic(err)
	}
	rx, err := virtio.NewRing(queueSize, segmentSize)
	if err != nil {
		panic(err)
	}
	q := &netQueues{tx: tx, rx: rx}
	q.stockRx(rxBuffers)
	return q
}

// stockRx posts n empty receive buffers (guest side) and pre-pops them
// (host side) so the host can fill them on frame arrival.
func (q *netQueues) stockRx(n int) {
	for i := 0; i < n; i++ {
		if _, err := q.rx.Add(nil, rxBufferLen); err != nil {
			break // ring full: stop stocking
		}
	}
	for {
		c, ok, err := q.rx.Pop()
		if err != nil || !ok {
			break
		}
		q.rxFree.Push(c)
	}
}

// guestSend places an encoded frame on the TX ring. It reports whether the
// ring had room (a full ring drops, as a real overloaded virtio device
// does).
func (q *netQueues) guestSend(frame []byte) bool {
	_, err := q.tx.Add(frame, 0)
	return err == nil
}

// hostPopTx takes the next pending TX frame (host side). The scratch chain
// is reusable because it is pushed back before the next pop; the frame is
// cloned since it outlives the descriptor.
func (q *netQueues) hostPopTx() ([]byte, bool) {
	ok, err := q.tx.PopInto(&q.pop)
	if err != nil || !ok {
		return nil, false
	}
	frame := append([]byte{}, q.pop.Out...)
	q.tx.Push(q.pop, nil)
	return frame, true
}

// guestReapTx frees completed TX descriptors (guest side).
func (q *netQueues) guestReapTx() { q.tx.ReapInto(&q.reap, 0) }

// hostDeliver fills one guest rx buffer with the frame (host side). False
// means no buffer was available and the frame is dropped.
func (q *netQueues) hostDeliver(frame []byte) bool {
	if q.rxFree.Len() == 0 {
		q.RxDrops++
		return false
	}
	q.rx.Push(q.rxFree.Pop(), frame)
	return true
}

// guestReapRx collects received frames and restocks the buffers. Frames are
// cloned out of the reusable batch because they escape into the guest stack.
func (q *netQueues) guestReapRx() [][]byte {
	n := q.rx.ReapInto(&q.reap, 0)
	if n == 0 {
		return nil
	}
	frames := make([][]byte, 0, n)
	for i := range q.reap.Completions {
		frames = append(frames, append([]byte{}, q.reap.Completions[i].In...))
	}
	q.stockRx(n)
	return frames
}

// blkQueue is the shared-memory state of one paravirtual block device: a
// single virtqueue whose chains carry a virtio-blk header plus data out,
// and reserve in-space for status (+ read data).
type blkQueue struct {
	ring *virtio.Ring
	// done routes each posted chain's reply to its submitter, indexed by
	// chain head (heads are below the ring's queue size).
	done []func([]byte, error)
	// reap is the reusable completion batch for guestReap; reapFn is
	// guestReap bound once, for completion interrupts.
	reap   virtio.ReapBatch
	reapFn func()
}

func newBlkQueue() *blkQueue {
	// Block chains move 4 KiB payloads: 2 KiB segments chain fine, but a
	// larger ring keeps many requests in flight.
	ring, err := virtio.NewRing(queueSize, segmentSize)
	if err != nil {
		panic(err)
	}
	q := &blkQueue{ring: ring, done: make([]func([]byte, error), ring.QueueSize())}
	q.reapFn = q.guestReap
	return q
}

// guestSubmit posts one block request; respCap reserves room for the
// response (1 status byte, plus data for reads), and done receives it. It
// reports ring-full.
func (q *blkQueue) guestSubmit(req []byte, respCap int, done func([]byte, error)) bool {
	head, err := q.ring.Add(req, respCap)
	if err != nil {
		return false
	}
	q.done[head] = done
	return true
}

// hostPop takes the next request (host side). It deliberately uses the
// allocating Pop: block chains are retained across asynchronous backend
// completions, so a reusable scratch chain would be clobbered while still
// referenced.
func (q *blkQueue) hostPop() (virtio.Chain, bool) {
	c, ok, err := q.ring.Pop()
	if err != nil {
		return virtio.Chain{}, false
	}
	return c, ok
}

// hostComplete pushes the response for a chain.
func (q *blkQueue) hostComplete(c virtio.Chain, resp []byte) {
	q.ring.Push(c, resp)
}

// guestReap collects completed requests and hands each response to its
// submitter; the response is valid only during that call.
func (q *blkQueue) guestReap() {
	q.ring.ReapInto(&q.reap, 0)
	for _, comp := range q.reap.Completions {
		if done := q.done[comp.Head]; done != nil {
			q.done[comp.Head] = nil
			done(comp.In, nil)
		}
	}
}
