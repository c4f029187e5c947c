// Package nic models network interface controllers: SRIOV physical
// functions carved into virtual functions (VFs), receive rings that drop on
// overflow (§4.5's Rx-ring experiment), interrupt delivery with coalescing,
// poll-mode draining (the vRIO IOhost polls its NICs, §4.2), and TSO
// transmission of vRIO messages.
//
// The datapath is allocation-free in steady state: frames and TSO fragments
// are built inside pooled buffers (header + encapsulation + payload in one
// pass), NIC processing delays run through prebound FIFO queues instead of
// per-frame closures, and the receive ring reuses its backing storage in
// both delivery modes. That rests on one contract for received frames: a
// frame handed to software (an interrupt batch, PollInto) belongs to the
// consumer, which returns it to the pool once (PutRaw) or drops it; and an
// interrupt batch — the slice, not the frames — is valid only during the
// OnInterrupt call. A handler that defers work copies the batch, usually
// into a BatchQueue.
package nic

import (
	"fmt"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/link"
	"vrio/internal/sim"
)

// DeliveryMode selects how a VF hands received frames to software.
type DeliveryMode int

// Delivery modes.
const (
	// ModeInterrupt raises a (coalesced) interrupt per frame batch.
	ModeInterrupt DeliveryMode = iota
	// ModePoll enqueues silently; software drains with PollInto.
	ModePoll
)

// Config holds the NIC's hardware characteristics.
type Config struct {
	// ProcessCost is per-frame NIC latency (DMA + descriptor handling).
	ProcessCost sim.Time
	// CoalesceDelay batches interrupts: the IRQ fires this long after the
	// first undelivered frame arrives.
	CoalesceDelay sim.Time
	// RxRingSize is the per-VF receive ring capacity in frames.
	RxRingSize int
}

// NIC is one physical port. Its transmit side feeds one wire (to a switch
// or a directly cabled peer); its receive side is the wire's receiver.
// SRIOV instances are created with AddVF; a non-virtualized NIC is simply a
// NIC with a single VF.
type NIC struct {
	eng  *sim.Engine
	name string
	cfg  Config
	tx   *link.Wire
	vfs  map[uint64]*VF // MAC.Key -> VF
	// vfList holds the VFs in AddVF order: broadcasts reach them in it.
	vfList []*VF

	pool *bufpool.Pool

	// txq holds frames awaiting their ProcessCost delay before hitting the
	// wire, drained FIFO by the prebound txFlush (the delay is one constant,
	// so FIFO order is exactly the event order the per-frame closures had).
	txq     sim.FIFO[[]byte]
	txFlush func()
	// sibq holds frames switched between sibling VFs, delayed by the same
	// ProcessCost and drained FIFO by the prebound sibFlush.
	sibq     sim.FIFO[sibFrame]
	sibFlush func()

	// UnknownDst counts frames that matched no VF.
	UnknownDst uint64
	// Runts counts frames too short to carry an Ethernet header.
	Runts uint64

	// Promiscuous, when set, receives frames that match no VF MAC — the
	// IOhost's uplink port runs this way, since it terminates traffic for
	// every front-end F address behind it.
	Promiscuous *VF
}

// New builds a NIC transmitting into tx.
func New(eng *sim.Engine, name string, cfg Config, tx *link.Wire) *NIC {
	if cfg.RxRingSize <= 0 {
		panic("nic: RxRingSize must be positive")
	}
	n := &NIC{eng: eng, name: name, cfg: cfg, tx: tx, vfs: make(map[uint64]*VF)}
	n.txFlush = func() { n.tx.Send(n.txq.Pop()) }
	n.sibFlush = func() {
		f := n.sibq.Pop()
		f.vf.ingress(f.frame)
	}
	return n
}

// sibFrame is one frame on its way to a sibling VF.
type sibFrame struct {
	vf    *VF
	frame []byte
}

// SetPool attaches a shared buffer pool (one per simulation cell, so
// buffers circulate between the NICs of communicating hosts). A NIC without
// an explicit pool lazily creates its own.
func (n *NIC) SetPool(p *bufpool.Pool) { n.pool = p }

// Pool returns the NIC's buffer pool, creating one on first use.
func (n *NIC) Pool() *bufpool.Pool {
	if n.pool == nil {
		n.pool = bufpool.New()
	}
	return n.pool
}

// queueTx schedules one encoded frame onto the wire after NIC processing.
func (n *NIC) queueTx(frame []byte) {
	n.txq.Push(frame)
	n.eng.After(n.cfg.ProcessCost, n.txFlush)
}

// VFByMAC returns the VF carved out for mac, or nil. Re-homing a client
// back onto a cable it used before reuses the existing virtual function
// instead of carving a duplicate.
func (n *NIC) VFByMAC(mac ethernet.MAC) *VF { return n.vfs[mac.Key()] }

// AddVF carves out an SRIOV virtual function with its own MAC.
func (n *NIC) AddVF(mac ethernet.MAC, mode DeliveryMode) *VF {
	if _, dup := n.vfs[mac.Key()]; dup {
		panic(fmt.Sprintf("nic %s: duplicate VF MAC %s", n.name, mac))
	}
	vf := &VF{nic: n, mac: mac, mode: mode}
	vf.deliverFn = vf.deliverOne
	vf.fireFn = vf.fireIRQ
	n.vfs[mac.Key()] = vf
	n.vfList = append(n.vfList, vf)
	return vf
}

// ReceiveFrame implements link.Receiver: a frame arrives from the wire.
func (n *NIC) ReceiveFrame(frame []byte) {
	f, err := ethernet.Decode(frame)
	if err != nil {
		n.Runts++
		return
	}
	if f.Dst == ethernet.Broadcast {
		// Every VF but the last gets its own pooled copy, since each
		// receiver releases the frame it is given.
		last := len(n.vfList) - 1
		for i, vf := range n.vfList {
			fr := frame
			if i < last {
				fr = n.Pool().Clone(frame)
			}
			vf.ingress(fr)
		}
		return
	}
	vf := n.vfs[f.Dst.Key()]
	if vf == nil {
		vf = n.Promiscuous
	}
	if vf == nil {
		n.UnknownDst++
		return
	}
	vf.ingress(frame)
}

// VF is one SRIOV virtual function (or the sole function of a plain NIC).
type VF struct {
	nic  *NIC
	mac  ethernet.MAC
	mode DeliveryMode

	// pendq holds frames inside their NIC ProcessCost window, drained FIFO
	// by the prebound deliverFn (one constant delay, so FIFO order matches
	// the per-frame closures it replaced).
	pendq sim.FIFO[[]byte]

	// rxq is the receive ring. rxHead is the consumed prefix: poll-mode
	// drains advance it and the backing array is reused once empty;
	// interrupt delivery lends the whole ring to the handler as its batch
	// and reuses the backing array once the handler returns.
	rxq    [][]byte
	rxHead int

	intrArmed bool
	onIRQ     func(frames [][]byte)
	nextMsgID uint32
	// frames is SendMessage's scratch list of the fragments it queues.
	frames [][]byte

	deliverFn func()
	fireFn    func()

	// NotifyRx, if set, is invoked whenever a frame lands in the rx ring.
	// Poll-mode consumers use it to avoid modelling literal busy-wait
	// ticks: the poller reacts within its poll interval.
	NotifyRx func()

	// linkDown marks the port as flapped down (zero value: link up).
	// ringCap, when positive, overrides cfg.RxRingSize for this VF — the
	// fault layer squeezes rings to force overflow drops.
	linkDown bool
	ringCap  int

	// Drops counts frames lost to a full receive ring.
	Drops uint64
	// FlapDrops counts frames lost (both directions) while the link was down.
	FlapDrops uint64
	// RxFrames / TxFrames count traffic.
	RxFrames uint64
	TxFrames uint64
}

// MAC reports the VF's address.
func (v *VF) MAC() ethernet.MAC { return v.mac }

// SetMode switches delivery mode (vRIO polls at the IOhost; the "w/o poll"
// ablation runs the same NIC in interrupt mode).
func (v *VF) SetMode(m DeliveryMode) { v.mode = m }

// OnInterrupt registers the interrupt handler for ModeInterrupt delivery.
// The handler receives the drained frame batch. The batch slice is valid only
// during the call (the VF reuses it); each frame in it belongs to the
// handler, which returns it to the pool exactly once or drops it.
func (v *VF) OnInterrupt(fn func(frames [][]byte)) { v.onIRQ = fn }

// QueueLen reports frames waiting in the rx ring.
func (v *VF) QueueLen() int { return len(v.rxq) - v.rxHead }

// SetLinkUp raises or drops the port's carrier. While down, the PHY loses
// every frame in both directions (tallied in FlapDrops) — the fault layer
// flaps VF ports with this.
func (v *VF) SetLinkUp(up bool) { v.linkDown = !up }

// SetRingCap overrides the effective receive-ring capacity (<= 0 restores
// the NIC default). Squeezing the ring forces natural overflow drops under
// load, without changing the shared NIC config.
func (v *VF) SetRingCap(n int) { v.ringCap = n }

// ringSize is the effective rx-ring capacity for this VF.
func (v *VF) ringSize() int {
	if v.ringCap > 0 {
		return v.ringCap
	}
	return v.nic.cfg.RxRingSize
}

// Pool returns the buffer pool of the VF's NIC, which received frames
// return to.
func (v *VF) Pool() *bufpool.Pool { return v.nic.Pool() }

func (v *VF) ingress(frame []byte) {
	if v.linkDown {
		v.FlapDrops++
		v.nic.Pool().PutRaw(frame)
		return
	}
	// NIC processing latency before the frame is visible to software.
	v.pendq.Push(frame)
	v.nic.eng.After(v.nic.cfg.ProcessCost, v.deliverFn)
}

// deliverOne lands the oldest in-flight frame in the rx ring.
func (v *VF) deliverOne() {
	frame := v.pendq.Pop()
	if v.QueueLen() >= v.ringSize() {
		v.Drops++
		v.nic.Pool().PutRaw(frame)
		return
	}
	v.rxq = append(v.rxq, frame)
	v.RxFrames++
	if v.mode == ModeInterrupt && !v.intrArmed {
		v.intrArmed = true
		v.nic.eng.After(v.nic.cfg.CoalesceDelay, v.fireFn)
	}
	if v.NotifyRx != nil {
		v.NotifyRx()
	}
}

func (v *VF) fireIRQ() {
	v.intrArmed = false
	if v.onIRQ == nil || v.QueueLen() == 0 {
		return
	}
	// Lend the ring to the handler and empty it. No frame lands while the
	// handler runs (delivery is an event of its own), so the backing array
	// is free for the next frames once it returns.
	batch := v.rxq[v.rxHead:]
	v.rxq = v.rxq[:0]
	v.rxHead = 0
	v.onIRQ(batch)
	clear(batch) // drop the frame references for the collector
}

// PollInto appends up to max frames (all if max <= 0) to *dst, returning
// how many were drained. The caller owns the drained frames; dst's backing
// is caller-managed scratch, so a sidecore loop that truncates and reuses
// it polls without allocating.
func (v *VF) PollInto(dst *[][]byte, max int) int {
	n := v.QueueLen()
	if n == 0 {
		return 0
	}
	if max > 0 && max < n {
		n = max
	}
	for i := 0; i < n; i++ {
		*dst = append(*dst, v.rxq[v.rxHead])
		v.rxq[v.rxHead] = nil
		v.rxHead++
	}
	if v.rxHead == len(v.rxq) {
		v.rxq = v.rxq[:0]
		v.rxHead = 0
	}
	return n
}

// SendFrame encodes and transmits one Ethernet frame after NIC processing.
// A zero source address is filled with the VF's MAC; a caller-provided
// source (e.g. a front-end F address on the IOhost uplink) is preserved.
// Frames addressed to a sibling VF are switched inside the NIC, as SRIOV
// hardware does, without touching the wire.
func (v *VF) SendFrame(f ethernet.Frame) error {
	if v.linkDown {
		v.FlapDrops++
		return nil // carrier lost: the frame vanishes, as on real hardware
	}
	if f.Src == (ethernet.MAC{}) {
		f.Src = v.mac
	}
	// Encode into a pooled buffer (header + payload in one pass); f is
	// only borrowed. Ownership of the buffer moves to the receiver, which
	// returns it to the pool.
	b := f.EncodeTo(v.nic.Pool().GetRaw(f.Len()))
	v.TxFrames++
	if sibling, local := v.nic.vfs[f.Dst.Key()]; local && sibling != v {
		v.nic.sibq.Push(sibFrame{sibling, b})
		v.nic.eng.After(v.nic.cfg.ProcessCost, v.nic.sibFlush)
		return nil
	}
	v.nic.queueTx(b)
	return nil
}

// SendMessage transmits a vRIO transport message of up to 64 KiB, gathered
// from parts, via TSO: ethernet.AppendFrames segments it into MTU-sized
// encapsulated fragments (§4.3), each built in a pooled frame in one copy,
// and the NIC clocks each onto the wire. The parts are only borrowed for the
// duration of the call.
func (v *VF) SendMessage(dst ethernet.MAC, deviceID uint16, mtu int, parts ...[]byte) error {
	if v.linkDown {
		v.FlapDrops++
		return nil // carrier lost: the whole message vanishes in the PHY
	}
	v.nextMsgID++
	var err error
	v.frames, err = ethernet.AppendFrames(v.frames[:0], v.nic.Pool(), dst, v.mac, v.nextMsgID, deviceID, mtu, parts...)
	for _, b := range v.frames {
		v.TxFrames++
		v.nic.queueTx(b)
	}
	clear(v.frames)
	return err
}

// BatchQueue holds the interrupt batches an OnInterrupt handler defers to
// later work items. Push copies the batch's frame references (the batch
// itself is only lent to the handler), and Pop returns the oldest batch.
// Deferring through a FIFO is exact when the work items complete in the
// order they were queued, as on one core. The zero value is empty.
type BatchQueue struct {
	frames sim.FIFO[[]byte]
	sizes  sim.FIFO[int]
	out    [][]byte
}

// Push queues a copy of batch.
func (q *BatchQueue) Push(batch [][]byte) {
	for _, f := range batch {
		q.frames.Push(f)
	}
	q.sizes.Push(len(batch))
}

// Pop dequeues the oldest batch. The returned slice is valid until the next
// Pop; the frames in it belong to the caller.
func (q *BatchQueue) Pop() [][]byte {
	q.out = q.out[:0]
	for n := q.sizes.Pop(); n > 0; n-- {
		q.out = append(q.out, q.frames.Pop())
	}
	return q.out
}
