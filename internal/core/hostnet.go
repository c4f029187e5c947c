package core

import (
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/hypervisor"
	"vrio/internal/interpose"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/virtio"
)

// hostNet is the host half of a baseline or Elvis guest's paravirtual net
// device: its virtqueues, its VF on the physical NIC and its back end. Both
// models serve it with one pipeline and differ only in the four things their
// AddVM sets: the serving core and its owner, the per-frame cost, the kick
// and the guest notification.
//
// hostNet is also the TX direction's virtio.NetSite: the serving core pays
// the chain's cost before the frame leaves through the VF.
type hostNet struct {
	eng *sim.Engine
	p   *params.P
	g   *Guest
	q   *netQueues
	vf  *nic.VF
	srv virtio.NetServer

	// core serves the device, billing owner (cpu.NoOwner for a sidecore).
	core  *cpu.Core
	owner int
	// cost is charged per frame served, plus perByte for each TX frame byte.
	cost    sim.Time
	perByte float64
	// kick tells the host that a frame with n payload bytes is on the TX ring.
	kick func(n int)
	// notify interrupts the guest, which then runs fn.
	notify func(fn func())

	rx hostNetRx

	// Frames waiting on the serving core, which completes work in order:
	// TX frames the ring handed over (txq, for serveTxFn), TX frames whose
	// chain cost the core is paying (chargedq, for sendFn; charge is the
	// cost Charge billed for the next Forward), and received interrupt
	// batches with their sizes (rxb and rxSizes, for the IRQ's rxIRQFn and
	// then serveRxFn). retryq holds encoded frames waiting out the constant
	// backoff for room on a full TX ring, for retryFn.
	txq, chargedq, retryq sim.FIFO[[]byte]
	charge                sim.Time
	rxb                   nic.BatchQueue
	rxSizes               sim.FIFO[int]

	// Prebound callbacks, so serving a frame builds no closure for them.
	txDoneFn, reapTxFn, rxDoneFn, reapRxFn func()
	serveTxFn, sendFn, rxIRQFn, serveRxFn  func()
	drainFn, retryFn                       func()
}

// hostNetRx is the RX direction's virtio.NetSite: frames go into the guest's
// rx ring at once, and the chain's cost is added to the batch, which the
// serving core pays before it notifies the guest.
type hostNetRx struct {
	n         *hostNet
	cost      sim.Time
	delivered int
}

// newHostNet gives guest g (device id id) its net device on the host NIC.
// The caller sets the model's four fields.
func newHostNet(eng *sim.Engine, p *params.P, g *Guest, id int, hostNIC *nic.NIC, chain *interpose.Chain) *hostNet {
	if chain == nil {
		chain = interpose.NewChain()
	}
	n := &hostNet{
		eng: eng, p: p, g: g, q: newNetQueues(),
		vf:  hostNIC.AddVF(g.netMAC, nic.ModeInterrupt),
		srv: virtio.NetServer{Chain: chain, Device: uint16(id)},
	}
	n.rx.n = n
	n.reapTxFn = n.q.guestReapTx
	n.txDoneFn = func() { n.notify(n.reapTxFn) }
	n.reapRxFn = g.ringReap
	n.rxDoneFn = func() { n.notify(n.reapRxFn) }
	n.serveTxFn = n.serveTx
	n.sendFn = func() {
		raw := n.chargedq.Pop()
		f, _ := ethernet.Decode(raw)
		n.send(f)
		n.g.pool.PutRaw(raw)
	}
	n.rxIRQFn = func() {
		n.core.Exec(n.owner, cpu.KindBusy, n.cost*sim.Time(n.rxSizes.Pop()), n.serveRxFn)
	}
	n.serveRxFn = func() { n.serveRx(n.rxb.Pop()) }
	n.drainFn = func() { n.drainTx() }
	n.retryFn = func() { n.ringPost(n.retryq.Pop()) }
	g.txFn = func() { n.ringPost(g.txq.Pop()) }
	n.vf.OnInterrupt(n.receive)
	g.net = n
	g.sendNet = g.ringSend
	return n
}

// drainTx serves every frame waiting on the TX ring, each as its own work
// item on the serving core, and reports how many there were.
func (n *hostNet) drainTx() (served int) {
	for {
		raw, ok := n.q.hostPopTx()
		if !ok {
			return served
		}
		served++
		n.txq.Push(raw)
		n.core.Exec(n.owner, cpu.KindBusy, n.cost+perByte(n.perByte, len(raw)), n.serveTxFn)
	}
}

// serveTx runs the oldest TX frame through the back end and releases it.
func (n *hostNet) serveTx() {
	raw := n.txq.Pop()
	n.srv.Serve(n, interpose.ToDevice, raw)
	n.g.pool.PutRaw(raw)
}

// Charge implements virtio.NetSite: the next frame forwarded leaves once
// the serving core has paid.
func (n *hostNet) Charge(cost sim.Time) { n.charge = cost }

// Forward implements virtio.NetSite: the frame is sent at once, or, when a
// chain cost was charged for it, encoded into a pooled slab that waits on
// the serving core for the cost.
func (n *hostNet) Forward(f ethernet.Frame) {
	if n.charge > 0 {
		n.chargedq.Push(f.EncodeTo(n.g.pool.GetRaw(f.Len())))
		n.core.Exec(n.owner, cpu.KindBusy, n.charge, n.sendFn)
		n.charge = 0
		return
	}
	n.send(f)
}

// send puts the frame out through the VF, whose TX-completion interrupt the
// serving core takes (for Elvis, the load that lets vRIO overtake it at
// high N, §4.2) before it notifies the guest, which reclaims its TX
// descriptors.
func (n *hostNet) send(f ethernet.Frame) {
	if err := n.vf.SendFrame(f); err != nil {
		panic(err)
	}
	hypervisor.HostIRQ(n.core, n.p, &n.g.VM.Counters, hypervisor.CounterHostIRQs, n.txDoneFn)
}

// receive handles the VF's interrupt: the physical IRQ lands on the serving
// core, which serves the batch into the guest's rx ring and notifies the
// guest once.
func (n *hostNet) receive(frames [][]byte) {
	n.rxb.Push(frames)
	n.rxSizes.Push(len(frames))
	hypervisor.HostIRQ(n.core, n.p, &n.g.VM.Counters, hypervisor.CounterHostIRQs, n.rxIRQFn)
}

// serveRx serves a received batch into the guest's rx ring, releasing each
// frame once its bytes are in the ring.
func (n *hostNet) serveRx(frames [][]byte) {
	n.rx.cost, n.rx.delivered = 0, 0
	for _, raw := range frames {
		n.srv.Serve(&n.rx, interpose.ToGuest, raw)
		n.g.pool.PutRaw(raw)
	}
	done := n.rxDoneFn
	if n.rx.delivered == 0 {
		done = nil
	}
	if n.rx.cost > 0 {
		n.core.Exec(n.owner, cpu.KindBusy, n.rx.cost, done)
	} else if done != nil {
		done()
	}
}

// Charge implements virtio.NetSite: the cost joins the batch's.
func (r *hostNetRx) Charge(cost sim.Time) { r.cost += cost }

// Forward implements virtio.NetSite: the frame, encoded into a pool slab,
// is handed to a guest rx buffer, or dropped when none is free.
func (r *hostNetRx) Forward(f ethernet.Frame) {
	pool := r.n.g.pool
	raw := f.EncodeTo(pool.GetRaw(f.Len()))
	if !r.n.q.hostDeliver(raw) {
		pool.PutRaw(raw)
		return
	}
	r.delivered++
}

// ringSend is the net front end of a guest whose host serves its rings
// (baseline, Elvis): the guest stack encodes the frame and posts it.
func (g *Guest) ringSend(f ethernet.Frame) {
	p := g.net.p
	g.queueSend(f, p.GuestNetStackCost+perByte(p.GuestTxPerByte, len(f.Payload)))
}

// ringPost hands the encoded frame raw to the TX ring and kicks the host.
// A full ring blocks the send path (backpressure), as virtio does:
// the post is retried every 20 µs until a descriptor frees up. The retry
// delay is one constant, so retries wait FIFO in retryq for retryFn.
func (n *hostNet) ringPost(raw []byte) {
	if !n.q.guestSend(raw) {
		n.retryq.Push(raw)
		n.eng.After(20*sim.Microsecond, n.retryFn)
		return
	}
	n.kick(len(raw) - ethernet.HeaderSize)
}

// ringReap is the front end's receive interrupt handler: every frame the
// host filled in goes, handed over, through the guest stack to the
// workload.
func (g *Guest) ringReap() {
	for _, c := range g.net.q.guestReapRx() {
		var frame []byte
		if len(c.In) > 0 {
			frame = c.In[0]
		}
		g.receiveNet(g.pool.Wrap(frame, frame), g.net.p.GuestNetStackCost)
	}
}
