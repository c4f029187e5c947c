package core

import (
	"vrio/internal/blockdev"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/hypervisor"
	"vrio/internal/interpose"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
)

// BaselineHost is the KVM/virtio trap-and-emulate configuration (§2
// "Baseline"): guests kick their virtqueues with exits, vhost I/O threads
// share one host core, device interrupts are handled by the host and
// injected into guests (whose EOI writes trap again). It is interposable —
// the chain runs in the host backend.
type BaselineHost struct {
	eng    *sim.Engine
	p      *params.P
	ioCore *cpu.Core
	nic    *nic.NIC
}

// NewBaselineHost builds the host. ioCore is the shared core Linux uses for
// vhost threads ("Linux uses the core to run I/O threads and VCPUs as it
// pleases" — we pin VCPUs and share the extra core among I/O threads, the
// stable end of that spectrum).
func NewBaselineHost(eng *sim.Engine, p *params.P, ioCore *cpu.Core, hostNIC *nic.NIC) *BaselineHost {
	return &BaselineHost{eng: eng, p: p, ioCore: ioCore, nic: hostNIC}
}

// AddVM provisions a VM with a virtio net device and, when blk is non-nil,
// a virtio block device backed by it. netChain and blkChain (optional)
// interpose on net and block traffic in the host backend.
func (h *BaselineHost) AddVM(id int, core *cpu.Core, mac ethernet.MAC, blk blockdev.Backend, netChain, blkChain *interpose.Chain) *Guest {
	g := newGuest(hypervisor.NewVM(h.eng, h.p, id, core), h.p, mac, h.nic.Pool())
	// The vhost thread serves the devices on the shared I/O core. The guest
	// kicks with exits (bulk payloads once per BaselineKickBytes, small
	// messages and block requests once), each waking the vhost thread;
	// completions are injected, and the guest's EOI write exits again
	// (Table 3).
	n := newHostNet(h.eng, h.p, g, id, h.nic, netChain)
	n.core, n.owner = h.ioCore, id
	n.cost, n.perByte = h.p.HostBackendCost, h.p.HostPerByte
	wake := func() { hypervisor.VhostWakeup(h.ioCore, h.p, n.drainFn) }
	n.kick = func(size int) { g.VM.ExitN(1+(size-1)/h.p.BaselineKickBytes, wake) }
	n.notify = func(fn func()) { g.VM.GuestIRQInjected(h.ioCore, fn) }

	if blk != nil {
		// ring -> exit -> vhost wakeup -> backend -> device -> host IRQ ->
		// injected completion -> reap. The vhost path copies block
		// payloads both ways.
		b := newHostBlk(n, id, blk, blkChain)
		b.cost, b.srv.Cost.PerByte = h.p.BlockServiceCost, h.p.HostPerByte
		wakeBlk := func() { hypervisor.VhostWakeup(h.ioCore, h.p, b.serveNextFn) }
		b.kick = func() { g.VM.Exit(wakeBlk) }
		b.hostIRQ = true
		// Guest-side per-op CPU beyond the stack: the kick exit and the
		// injected completion (guest IRQ handler + EOI exit).
		g.blkDoneCost = 2*h.p.ExitCost + h.p.GuestIRQCost
	}
	return g
}
