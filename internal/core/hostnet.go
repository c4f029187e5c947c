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

	// Prebound callbacks, so serving a frame builds no closure for them.
	txDoneFn, reapTxFn, rxDoneFn, reapRxFn func()
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
		n.core.Exec(n.owner, cpu.KindBusy, n.cost+perByte(n.perByte, len(raw)), func() {
			n.srv.Serve(n, interpose.ToDevice, raw)
		})
	}
}

// Charge implements virtio.NetSite: fn runs once the serving core has paid.
func (n *hostNet) Charge(cost sim.Time, fn func()) { n.core.Exec(n.owner, cpu.KindBusy, cost, fn) }

// Forward implements virtio.NetSite: the frame leaves through the VF, whose
// TX-completion interrupt the serving core takes (for Elvis, the load that
// lets vRIO overtake it at high N, §4.2) before it notifies the guest, which
// reclaims its TX descriptors.
func (n *hostNet) Forward(f ethernet.Frame) {
	if err := n.vf.SendFrame(f); err != nil {
		panic(err)
	}
	hypervisor.HostIRQ(n.core, n.p, &n.g.VM.Counters, hypervisor.CounterHostIRQs, n.txDoneFn)
}

// receive handles the VF's interrupt: the physical IRQ lands on the serving
// core, which serves the batch into the guest's rx ring and notifies the
// guest once.
func (n *hostNet) receive(frames [][]byte) {
	hypervisor.HostIRQ(n.core, n.p, &n.g.VM.Counters, hypervisor.CounterHostIRQs, func() {
		n.core.Exec(n.owner, cpu.KindBusy, n.cost*sim.Time(len(frames)), func() { n.serveRx(frames) })
	})
}

func (n *hostNet) serveRx(frames [][]byte) {
	n.rx.cost, n.rx.delivered = 0, 0
	for _, raw := range frames {
		n.srv.Serve(&n.rx, interpose.ToGuest, raw)
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
func (r *hostNetRx) Charge(cost sim.Time, fn func()) {
	r.cost += cost
	fn()
}

// Forward implements virtio.NetSite: the frame fills a guest rx buffer, or
// is dropped when none is free.
func (r *hostNetRx) Forward(f ethernet.Frame) {
	raw, _ := f.Encode(0) // an mtu of 0 skips the only check that fails
	if r.n.q.hostDeliver(raw) {
		r.delivered++
	}
}

// ringSend is the net front end of a guest whose host serves its rings
// (baseline, Elvis): the guest stack encodes the frame and posts it.
func (g *Guest) ringSend(f ethernet.Frame) {
	p := g.net.p
	g.VM.Compute(p.GuestNetStackCost+perByte(p.GuestTxPerByte, len(f.Payload)), func() {
		f := f                // encode a copy, so the closure holds f by value
		raw, _ := f.Encode(0) // an mtu of 0 skips the only check that fails
		g.ringPost(raw, len(f.Payload))
	})
}

// ringPost puts an encoded frame with n payload bytes on the TX ring and
// kicks the host. A full ring blocks the send path (backpressure), as virtio
// does: the post is retried every 20 µs until a descriptor frees up.
func (g *Guest) ringPost(raw []byte, n int) {
	if !g.net.q.guestSend(raw) {
		g.net.eng.After(20*sim.Microsecond, func() { g.ringPost(raw, n) })
		return
	}
	g.net.kick(n)
}

// ringReap is the front end's receive interrupt handler: every frame the
// host filled in goes through the guest stack to the workload.
func (g *Guest) ringReap() {
	for _, raw := range g.net.q.guestReapRx() {
		g.receiveNet(raw, g.net.p.GuestNetStackCost)
	}
}
