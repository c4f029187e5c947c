package core

import (
	"vrio/internal/blockdev"
	"vrio/internal/bufpool"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/hypervisor"
	"vrio/internal/interpose"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/virtio"
)

// BaselineHost is the KVM/virtio trap-and-emulate configuration (§2
// "Baseline"): guests kick their virtqueues with exits, vhost I/O threads
// share one host core, device interrupts are handled by the host and
// injected into guests (whose EOI writes trap again). It is interposable —
// the chain runs in the host backend.
type BaselineHost struct {
	eng    *sim.Engine
	p      *params.P
	name   string
	ioCore *cpu.Core
	nic    *nic.NIC
}

type baselineGuest struct {
	g   *Guest
	id  int
	blk virtio.BlkServer
	// The block kick's stages, bound once: the exit wakes the vhost thread
	// (wakeFn), which charges the service cost on the I/O core (execFn) and
	// then pops and serves one request (serveFn).
	wakeFn, execFn, serveFn func()
	// sites recycles the block requests' sites and the chains they own.
	sites *bufpool.List[baselineBlk]
}

// NewBaselineHost builds the host. ioCore is the shared core Linux uses for
// vhost threads ("Linux uses the core to run I/O threads and VCPUs as it
// pleases" — we pin VCPUs and share the extra core among I/O threads, the
// stable end of that spectrum).
func NewBaselineHost(eng *sim.Engine, p *params.P, name string, ioCore *cpu.Core, hostNIC *nic.NIC) *BaselineHost {
	return &BaselineHost{eng: eng, p: p, name: name, ioCore: ioCore, nic: hostNIC}
}

// Name reports the host name.
func (h *BaselineHost) Name() string { return h.name }

// AddVM provisions a VM with a virtio net device and, when blk is non-nil,
// a virtio block device backed by it. netChain and blkChain (optional)
// interpose on net and block traffic in the host backend.
func (h *BaselineHost) AddVM(id int, core *cpu.Core, mac ethernet.MAC, blk blockdev.Backend, netChain, blkChain *interpose.Chain) *Guest {
	if blkChain == nil {
		blkChain = interpose.NewChain()
	}
	pool := h.nic.Pool()
	bg := &baselineGuest{
		g:  newGuest(hypervisor.NewVM(h.eng, h.p, id, core), h.p, mac, pool),
		id: id,
		// The vhost path copies block payloads both ways; its fixed service
		// cost is charged by execFn.
		blk: virtio.BlkServer{
			Backend: blk, Chain: blkChain, Device: uint16(id),
			Cost: virtio.BlkCost{PerByte: h.p.HostPerByte},
			Pool: pool,
		},
	}
	// The vhost thread serves the device on the shared I/O core. The guest
	// kicks with exits (bulk payloads once per BaselineKickBytes, small
	// messages once), each waking the vhost thread; completions are
	// injected, and the guest's EOI write exits again (Table 3).
	n := newHostNet(h.eng, h.p, bg.g, id, h.nic, netChain)
	n.core, n.owner = h.ioCore, id
	n.cost, n.perByte = h.p.HostBackendCost, h.p.HostPerByte
	wake := func() { hypervisor.VhostWakeup(h.ioCore, h.p, n.drainFn) }
	n.kick = func(size int) { bg.g.VM.ExitN(1+(size-1)/h.p.BaselineKickBytes, wake) }
	n.notify = func(fn func()) { bg.g.VM.GuestIRQInjected(h.ioCore, fn) }

	if blk != nil {
		q := newBlkQueue(pool)
		bg.g.blkQ = q
		// Guest-side per-op CPU: stack + kick exit + injected completion
		// (guest IRQ handler + EOI exit).
		bg.g.blkCPU = func(int) sim.Time {
			return h.p.GuestNetStackCost + 2*h.p.ExitCost + h.p.GuestIRQCost
		}
		// ring -> exit -> vhost wakeup -> backend -> device -> host IRQ ->
		// injected completion -> reap.
		bg.g.blkStackCost = func(int) sim.Time { return h.p.GuestNetStackCost }
		bg.g.blkPost = func(op *blkOp) {
			if q.guestSubmit(op) {
				bg.g.VM.Exit(bg.wakeFn)
			}
		}
		bg.g.blkBadStatus = blockdev.ErrDeviceFailed
		bg.wakeFn = func() { hypervisor.VhostWakeup(h.ioCore, h.p, bg.execFn) }
		bg.execFn = func() { h.ioCore.Exec(bg.id, cpu.KindBusy, h.p.BlockServiceCost, bg.serveFn) }
		bg.sites = bufpool.NewList("core baseline blk sites", func() *baselineBlk {
			b := &baselineBlk{h: h, bg: bg}
			b.irqFn = func() {
				q.ring.Push(b.c, b.data, b.status)
				releaseChain(pool, &b.c)
				b.status, b.data = nil, nil
				bg.sites.Put(b)
				bg.g.VM.GuestIRQInjected(h.ioCore, q.reapFn)
			}
			return b
		})
		bg.serveFn = func() {
			b := bg.sites.Get()
			if ok, err := q.ring.PopInto(&b.c); err != nil || !ok {
				bg.sites.Put(b)
				return // already served by an earlier kick's drain
			}
			bg.blk.Serve(b, b.c.Out...)
		}
	}
	return bg.g
}

// baselineBlk is the baseline's virtio.BlkSite for one request: the shared
// vhost core serves it, and the completion takes a host interrupt before it
// is injected into the guest. The site owns the chain its request was
// popped into, the request buffers the ring handed over and the reply the
// server handed over, until the interrupt has completed the chain, which
// recycles them.
type baselineBlk struct {
	h            *BaselineHost
	bg           *baselineGuest
	c            virtio.Chain
	status, data []byte
	irqFn        func()
}

// Charge implements virtio.BlkSite.
func (b *baselineBlk) Charge(cost sim.Time, fn func()) {
	b.h.ioCore.Exec(b.bg.id, cpu.KindBusy, cost, fn)
}

// Completed implements virtio.BlkSite.
func (b *baselineBlk) Completed() {}

// Reply takes the device interrupt on the host, then completes the chain
// and injects the completion. The site keeps the reply for the interrupt:
// the data, handed over, and the status, a static byte.
func (b *baselineBlk) Reply(status, data []byte) {
	b.status, b.data = status, data
	hypervisor.HostIRQ(b.h.ioCore, b.h.p, &b.bg.g.VM.Counters, hypervisor.CounterHostIRQs, b.irqFn)
}
