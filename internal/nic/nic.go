// Package nic models network interface controllers: SRIOV physical
// functions carved into virtual functions (VFs), receive rings that drop on
// overflow (§4.5's Rx-ring experiment), interrupt delivery with coalescing,
// poll-mode draining (the vRIO IOhost polls its NICs, §4.2), and TSO
// transmission of vRIO messages.
//
// The datapath is allocation-free in steady state: TSO fragments are built
// inside pooled buffers (header + encapsulation + payload in one pass), NIC
// processing delays run through prebound FIFO queues instead of per-frame
// closures, and poll-mode receive rings reuse their backing storage.
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
	// ModePoll enqueues silently; software drains with Poll.
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

	pool *bufpool.Pool

	// txq holds frames awaiting their ProcessCost delay before hitting the
	// wire, drained FIFO by the prebound txFlush (the delay is one constant,
	// so FIFO order is exactly the event order the per-frame closures had).
	txq     sim.FIFO[[]byte]
	txFlush func()

	// UnknownDst counts frames that matched no VF.
	UnknownDst uint64

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
	return n
}

// Name reports the NIC name.
func (n *NIC) Name() string { return n.name }

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
	return vf
}

// ReceiveFrame implements link.Receiver: a frame arrives from the wire.
func (n *NIC) ReceiveFrame(frame []byte) {
	f, err := ethernet.Decode(frame)
	if err != nil {
		return
	}
	if f.Dst == ethernet.Broadcast {
		for _, vf := range n.vfs {
			vf.ingress(frame)
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
	// interrupt delivery hands the backing to the handler (which may retain
	// the batch) and starts a fresh one.
	rxq    [][]byte
	rxHead int

	intrArmed bool
	onIRQ     func(frames [][]byte)
	nextMsgID uint32

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

// Mode reports the delivery mode.
func (v *VF) Mode() DeliveryMode { return v.mode }

// SetMode switches delivery mode (vRIO polls at the IOhost; the "w/o poll"
// ablation runs the same NIC in interrupt mode).
func (v *VF) SetMode(m DeliveryMode) { v.mode = m }

// OnInterrupt registers the interrupt handler for ModeInterrupt delivery.
// The handler receives the drained frame batch and owns it.
func (v *VF) OnInterrupt(fn func(frames [][]byte)) { v.onIRQ = fn }

// QueueLen reports frames waiting in the rx ring.
func (v *VF) QueueLen() int { return len(v.rxq) - v.rxHead }

// SetLinkUp raises or drops the port's carrier. While down, the PHY loses
// every frame in both directions (tallied in FlapDrops) — the fault layer
// flaps VF ports with this.
func (v *VF) SetLinkUp(up bool) { v.linkDown = !up }

// LinkUp reports whether the port has carrier.
func (v *VF) LinkUp() bool { return !v.linkDown }

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

func (v *VF) ingress(frame []byte) {
	if v.linkDown {
		v.FlapDrops++
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
	// Hand the backing array to the handler (it may retain the batch past
	// this call) and start fresh.
	batch := v.rxq[v.rxHead:]
	v.rxq = nil
	v.rxHead = 0
	v.onIRQ(batch)
}

// Poll drains up to max frames (all if max <= 0). Poll-mode software calls
// this from its sidecore loop. The returned slice is freshly allocated;
// steady-state pollers use PollInto with a reused scratch batch instead.
func (v *VF) Poll(max int) [][]byte {
	var out [][]byte
	v.PollInto(&out, max)
	return out
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
	// Encode into a pooled buffer (header + payload in one pass). Ownership
	// moves to the receiver; plain tenant frames that escape into guest
	// stacks simply fall back to the garbage collector.
	b := v.nic.Pool().GetRaw(ethernet.HeaderSize + len(f.Payload))
	ethernet.PutHeader(b, f.Dst, f.Src, f.EtherType)
	copy(b[ethernet.HeaderSize:], f.Payload)
	v.TxFrames++
	if sibling, local := v.nic.vfs[f.Dst.Key()]; local && sibling != v {
		v.nic.eng.After(v.nic.cfg.ProcessCost, func() { sibling.ingress(b) })
		return nil
	}
	v.nic.queueTx(b)
	return nil
}

// SendMessage transmits a vRIO transport message of up to 64 KiB via TSO:
// the NIC segments it into MTU-sized encapsulated fragments (§4.3) and
// clocks each onto the wire. Each fragment frame is built inside a pooled
// buffer — Ethernet header, fake TCP/IP encapsulation, and payload in a
// single pass; msg itself is only borrowed for the duration of the call.
func (v *VF) SendMessage(dst ethernet.MAC, deviceID uint16, msg []byte, mtu int) error {
	if v.linkDown {
		v.FlapDrops++
		return nil // carrier lost: the whole message vanishes in the PHY
	}
	v.nextMsgID++
	if len(msg) > ethernet.MaxMessage {
		return fmt.Errorf("%w: %d bytes", ethernet.ErrMessageTooBig, len(msg))
	}
	if mtu < ethernet.MinMTU || mtu > ethernet.MaxMTU {
		return fmt.Errorf("ethernet: MTU %d outside [%d, %d]", mtu, ethernet.MinMTU, ethernet.MaxMTU)
	}
	chunk := mtu - ethernet.EncapOverhead
	if chunk <= 0 {
		return fmt.Errorf("ethernet: MTU %d leaves no payload room", mtu)
	}
	pool := v.nic.Pool()
	total := uint32(len(msg))
	for off := 0; ; off += chunk {
		end := off + chunk
		last := false
		if end >= len(msg) {
			end = len(msg)
			last = true
		}
		b := pool.GetRaw(ethernet.HeaderSize + ethernet.EncapOverhead + (end - off))
		ethernet.PutHeader(b, dst, v.mac, ethernet.EtherTypeVRIO)
		ethernet.EncapSegmentInto(b[ethernet.HeaderSize:], ethernet.Segment{
			MsgID:    v.nextMsgID,
			DeviceID: deviceID,
			Offset:   uint32(off),
			Total:    total,
			Last:     last,
			Payload:  msg[off:end],
		})
		v.TxFrames++
		v.nic.queueTx(b)
		if last {
			break
		}
	}
	return nil
}
