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
	g    *Guest
	id   int
	blkQ *blkQueue
	blk  virtio.BlkServer
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
	bg := &baselineGuest{
		g:  &Guest{VM: hypervisor.NewVM(h.eng, h.p, id, core), netMAC: mac},
		id: id,
		// The vhost path copies block payloads both ways; its fixed service
		// cost is charged in guestBlkSubmit.
		blk: virtio.BlkServer{
			Backend: blk, Chain: blkChain, Device: uint16(id),
			Cost: virtio.BlkCost{PerByte: h.p.HostPerByte},
		},
	}
	// The vhost thread serves the device on the shared I/O core. The guest
	// kicks with exits (bulk payloads once per BaselineKickBytes, small
	// messages once), each waking the vhost thread; completions are
	// injected, and the guest's EOI write exits again (Table 3).
	n := newHostNet(h.eng, h.p, bg.g, id, h.nic, netChain)
	n.core, n.owner = h.ioCore, id
	n.cost, n.perByte = h.p.HostBackendCost, h.p.HostPerByte
	wake := func() { hypervisor.VhostWakeup(h.ioCore, h.p, func() { n.drainTx() }) }
	n.kick = func(size int) { bg.g.VM.ExitN(1+(size-1)/h.p.BaselineKickBytes, wake) }
	n.notify = func(fn func()) { bg.g.VM.GuestIRQInjected(h.ioCore, fn) }

	if blk != nil {
		bg.blkQ = newBlkQueue()
		// Guest-side per-op CPU: stack + kick exit + injected completion
		// (guest IRQ handler + EOI exit).
		bg.g.blkCPU = func(int) sim.Time {
			return h.p.GuestNetStackCost + 2*h.p.ExitCost + h.p.GuestIRQCost
		}
		bg.g.blkSubmit = func(req []byte, sectors int, done func([]byte, error)) {
			h.guestBlkSubmit(bg, req, 1+sectors*h.p.SectorSize, done)
		}
		bg.g.blkWrite, bg.g.blkRead = bg.g.ringWrite, bg.g.ringRead
	}
	return bg.g
}

// --- block path ---

// guestBlkSubmit: ring -> exit -> vhost wakeup -> backend -> device ->
// host IRQ -> injected completion -> reap.
func (h *BaselineHost) guestBlkSubmit(bg *baselineGuest, req []byte, respCap int, done func([]byte, error)) {
	bg.g.VM.Compute(h.p.GuestNetStackCost, func() {
		if !bg.blkQ.guestSubmit(req, respCap, done) {
			done(nil, virtio.ErrRingFull)
			return
		}
		bg.g.VM.Exit(func() {
			hypervisor.VhostWakeup(h.ioCore, h.p, func() {
				h.ioCore.Exec(bg.id, cpu.KindBusy, h.p.BlockServiceCost, func() {
					c, ok := bg.blkQ.hostPop()
					if !ok {
						return // already served by an earlier kick's drain
					}
					bg.blk.Serve(&baselineBlk{h: h, bg: bg, c: c}, c.Out)
				})
			})
		})
	})
}

// baselineBlk is the baseline's virtio.BlkSite for one request: the shared
// vhost core serves it, and the completion takes a host interrupt before it
// is injected into the guest.
type baselineBlk struct {
	h  *BaselineHost
	bg *baselineGuest
	c  virtio.Chain
}

// Charge implements virtio.BlkSite.
func (b *baselineBlk) Charge(cost sim.Time, fn func()) {
	b.h.ioCore.Exec(b.bg.id, cpu.KindBusy, cost, fn)
}

// Completed implements virtio.BlkSite.
func (b *baselineBlk) Completed() {}

// Reply takes the device interrupt on the host, then completes the chain
// and injects the completion.
func (b *baselineBlk) Reply(resp []byte) {
	resp = append([]byte(nil), resp...) // resp is only valid during the call
	hypervisor.HostIRQ(b.h.ioCore, b.h.p, &b.bg.g.VM.Counters, hypervisor.CounterHostIRQs, func() {
		b.bg.blkQ.hostComplete(b.c, resp)
		b.bg.g.VM.GuestIRQInjected(b.h.ioCore, b.bg.blkQ.reapFn)
	})
}
