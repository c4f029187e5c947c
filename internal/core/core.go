// Package core composes the substrates into the paper's four virtual I/O
// models (§2, Figure 4):
//
//   - baseline: KVM virtio — trap-and-emulate paravirtualization. Guests
//     kick via exits; vhost threads share an I/O core; interrupts are
//     injected and EOIs trap.
//   - elvis: sidecore paravirtualization — a dedicated per-host sidecore
//     polls the guests' virtqueues; interrupts to guests are exitless; the
//     physical NIC still interrupts the host.
//   - vrio: paravirtual remote I/O — the paper's contribution. Guests talk
//     through an SRIOV VF + ELI to the remote I/O hypervisor, which polls
//     its NICs (package iohyp).
//   - optimum: SRIOV+ELI device assignment — no interposition, used as the
//     performance ceiling.
//
// Workloads drive the model-independent Guest type; each model wires
// Guest's datapaths differently and pays different costs, which is the
// entire point of the evaluation.
package core

import (
	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/guestos"
	"vrio/internal/hypervisor"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/virtio"
)

// ModelName identifies an I/O model in results tables.
type ModelName string

// The five evaluated configurations (vrio appears twice: with and without
// IOhost polling).
const (
	ModelBaseline   ModelName = "baseline"
	ModelElvis      ModelName = "elvis"
	ModelVRIO       ModelName = "vrio"
	ModelVRIONoPoll ModelName = "vrio-nopoll"
	ModelOptimum    ModelName = "optimum"
)

// Guest is a workload's handle on one VM (or bare-metal IOclient): compute,
// a paravirtual (or assigned) net device, and optionally a block device.
type Guest struct {
	// VM carries the VCPU core and the Table 3 event counters.
	VM *hypervisor.VM
	p  *params.P
	// Threads is the in-guest thread scheduler, used by Filebench-style
	// multi-threaded workloads (nil for single-flow workloads).
	Threads *guestos.VCPU

	netMAC ethernet.MAC

	// net and blk are the guest's net and block devices when its host
	// serves the rings (baseline, Elvis); ringSend and ringReap are the net
	// front end.
	net *hostNet
	blk *hostBlk

	// sendNet is the model-wired net send hook.
	sendNet func(f ethernet.Frame)

	// Block front end, set by models that attach a block device. A request
	// first pays blkStackCost (of its payload bytes) on the VCPU; then
	// blkPost posts op.req on the guest's ring, with op.replyFn as its
	// completion, or over the vRIO transport, with op.wireFn. A reply whose
	// status is not BlkOK fails with blkBadStatus. blkDoneCost is the guest
	// CPU of the kick and the completion beyond the stack, which
	// BlockCPUCost adds. blkOps recycles the ops.
	blkPost      func(op *blkOp)
	blkStackCost func(bytes int) sim.Time
	blkDoneCost  sim.Time
	blkBadStatus error
	blkOps       *bufpool.List[blkOp]

	// onNetRx is the workload's receive handler.
	onNetRx func(f ethernet.Frame)

	// pool is the cell's buffer pool. Frames the guest holds across a work
	// item live in its slabs: received frames waiting out the guest stack
	// (rxq, leases drained by rxFn) and encoded frames waiting out the send
	// path's cost (txq, drained by the model's txFn). The VCPU completes
	// work in order, so the k-th callback takes the k-th frame.
	pool       *bufpool.Pool
	rxq        sim.FIFO[*bufpool.Frame]
	txq        sim.FIFO[[]byte]
	rxFn, txFn func()

	// TxFrames/RxFrames count guest-observed traffic.
	TxFrames uint64
	RxFrames uint64
}

// MAC reports the guest's outward-facing (F) address.
func (g *Guest) MAC() ethernet.MAC { return g.netMAC }

// newGuest builds the model-independent half of a guest: its VM and its
// receive path, holding frames in slabs of pool.
func newGuest(vm *hypervisor.VM, p *params.P, mac ethernet.MAC, pool *bufpool.Pool) *Guest {
	g := &Guest{VM: vm, p: p, netMAC: mac, pool: pool}
	g.rxFn = g.deliverNet
	g.blkOps = bufpool.NewList("core blk ops", func() *blkOp {
		op := &blkOp{g: g}
		op.postFn = func() { g.blkPost(op) }
		op.replyFn = op.reply
		op.wireFn = func(resp []byte, err error) {
			n := min(len(resp), 1)
			op.reply(resp[:n], resp[n:], err)
		}
		return op
	})
	return g
}

// OnNetRx registers the workload's frame handler. The handler borrows the
// frame for the duration of the call; it copies what it keeps.
func (g *Guest) OnNetRx(fn func(f ethernet.Frame)) { g.onNetRx = fn }

// SendNet transmits a frame from inside the guest. The source address is
// filled with the guest's MAC. The frame is only borrowed for the duration
// of the call.
func (g *Guest) SendNet(f ethernet.Frame) {
	f.Src = g.netMAC
	g.TxFrames++
	g.sendNet(f)
}

// queueSend encodes f into a pooled slab on txq and runs the model's txFn
// after cost of guest CPU; txFn pops the frame and releases it.
func (g *Guest) queueSend(f ethernet.Frame, cost sim.Time) {
	g.txq.Push(f.EncodeTo(g.pool.GetRaw(f.Len())))
	g.VM.Compute(cost, g.txFn)
}

// receiveNet runs a received frame through the guest stack, which costs
// stack, and hands it to the workload. The guest takes over the frame's
// lease (a ring model's whole slab, or the vRIO transport's received
// message) and releases it once the workload's handler returns. Frames too
// short to decode are dropped.
func (g *Guest) receiveNet(frame *bufpool.Frame, stack sim.Time) {
	if len(frame.B) < ethernet.HeaderSize {
		frame.Release()
		return
	}
	g.rxq.Push(frame)
	g.VM.Compute(stack, g.rxFn)
}

// deliverNet hands the oldest received frame to the workload.
func (g *Guest) deliverNet() {
	frame := g.rxq.Pop()
	f, _ := ethernet.Decode(frame.B) // receiveNet checked the length
	g.RxFrames++
	if g.onNetRx != nil {
		g.onNetRx(f)
	}
	frame.Release()
}

// WriteBlock writes data at the given sector through the guest's
// paravirtual block device.
func (g *Guest) WriteBlock(sector uint64, data []byte, done func(error)) {
	g.WriteBlockQ(0, sector, data, done)
}

// ReadBlock reads sectors through the guest's paravirtual block device.
func (g *Guest) ReadBlock(sector uint64, sectors int, done func([]byte, error)) {
	g.ReadBlockQ(0, sector, sectors, done)
}

// WriteBlockQ writes through submission queue `queue` of the guest's block
// device. Models without multi-queue support ignore the queue id. data is
// copied into the request before WriteBlockQ returns.
func (g *Guest) WriteBlockQ(queue uint8, sector uint64, data []byte, done func(error)) {
	op := g.getBlkOp()
	op.encode(virtio.BlkReq{Type: virtio.BlkOut, Sector: sector, Data: data})
	op.queue, op.wdone = queue, done
	g.VM.Compute(g.blkStackCost(len(data)), op.postFn)
}

// ReadBlockQ reads through submission queue `queue` of the guest's block
// device. Models without multi-queue support ignore the queue id. The data
// passed to done is only valid during the call.
func (g *Guest) ReadBlockQ(queue uint8, sector uint64, sectors int, done func([]byte, error)) {
	op := g.getBlkOp()
	bytes := sectors * g.p.SectorSize
	op.encode(virtio.BlkReq{Type: virtio.BlkIn, Sector: sector, Sectors: sectors})
	op.queue, op.readLen, op.rdone = queue, bytes, done
	g.VM.Compute(g.blkStackCost(bytes), op.postFn)
}

// BlockCPUCost reports the guest-side CPU consumed per block operation of
// the given size under this guest's I/O model (stack, kicks/exits,
// interrupt handling, encapsulation). Thread-scheduler workloads add it to
// their per-op compute so the VCPU feels the model's datapath cost.
func (g *Guest) BlockCPUCost(bytes int) sim.Time {
	if g.blkPost == nil {
		return 0
	}
	return g.blkStackCost(bytes) + g.blkDoneCost
}

// Compute runs application work on the guest's VCPU.
func (g *Guest) Compute(d sim.Time, fn func()) { g.VM.Compute(d, fn) }

// perByte converts a ns-per-byte rate into a duration for n bytes.
func perByte(rate float64, n int) sim.Time {
	return sim.Time(rate * float64(n))
}

// blkOp is one block request from the guest's front end, drawn from the
// guest's free list with its callbacks bound once, so a request allocates
// nothing. req is the encoded request header and data a write's payload, a
// pool slab of its own. A ring guest's header is a pool slab too, and the
// ring hands both over to the host when the op is posted. A vRIO guest's
// header is the op's own small buffer, reused by the next request; the
// transport gathers it and the payload into its wire frames, and reads
// both until its callback fires, because a retransmission resends them, so
// reply releases the payload. The op is recycled just before its
// submitter's done runs.
type blkOp struct {
	g       *Guest
	req     []byte
	data    []byte
	queue   uint8
	readLen int // a read's data bytes, which a ring reserves a descriptor for
	wdone   func(error)
	rdone   func([]byte, error)
	// postFn runs g.blkPost(op) once the guest stack has paid; replyFn takes
	// the reply's status and a read's data and completes the request, and
	// wireFn takes the transport's reply, the status byte then the data.
	postFn  func()
	replyFn func(status, data []byte, err error)
	wireFn  func(resp []byte, err error)
}

// encode builds the request r into the op, copying a write's payload into
// a slab of its own, so a 4 KiB write stays in the pool's exact 4 KiB
// class.
func (op *blkOp) encode(r virtio.BlkReq) {
	g := op.g
	if len(r.Data) > 0 {
		op.data = g.pool.Clone(r.Data)
		r.Data = nil
	}
	if g.blk == nil {
		op.req = r.Append(op.req[:0])
		return
	}
	op.req = r.Append(g.pool.GetRaw(virtio.BlkHdrSize + 4)[:0])
}

func (g *Guest) getBlkOp() *blkOp {
	if g.blkPost == nil {
		panic("core: guest has no block device")
	}
	return g.blkOps.Get()
}

// reply releases a payload the transport held, recycles the op, then
// completes its request with the reply's status and a read's data, which
// are only valid during the call.
func (op *blkOp) reply(status, data []byte, err error) {
	g, wdone, rdone := op.g, op.wdone, op.rdone
	if op.data != nil {
		g.pool.PutRaw(op.data)
	}
	op.wdone, op.rdone, op.data, op.readLen = nil, nil, nil, 0
	g.blkOps.Put(op)
	if err == nil && (len(status) < 1 || status[0] != virtio.BlkOK) {
		err = g.blkBadStatus
	}
	switch {
	case wdone != nil:
		wdone(err)
	case err != nil:
		rdone(nil, err)
	default:
		rdone(data, nil)
	}
}
