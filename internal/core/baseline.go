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
	guests []*baselineGuest
}

type baselineGuest struct {
	g     *Guest
	id    int
	netQ  *netQueues
	blkQ  *blkQueue
	vf    *nic.VF
	chain *interpose.Chain
	blk   virtio.BlkServer
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

// IOCore exposes the shared vhost core.
func (h *BaselineHost) IOCore() *cpu.Core { return h.ioCore }

// AddVM provisions a VM with a virtio net device and, when blk is non-nil,
// a virtio block device backed by it. netChain and blkChain (optional)
// interpose on net and block traffic in the host backend.
func (h *BaselineHost) AddVM(id int, core *cpu.Core, mac ethernet.MAC, blk blockdev.Backend, netChain, blkChain *interpose.Chain) *Guest {
	if netChain == nil {
		netChain = interpose.NewChain()
	}
	if blkChain == nil {
		blkChain = interpose.NewChain()
	}
	bg := &baselineGuest{
		g:     &Guest{VM: hypervisor.NewVM(h.eng, h.p, id, core), netMAC: mac},
		id:    id,
		netQ:  newNetQueues(),
		chain: netChain,
		// The vhost path copies block payloads both ways; its fixed service
		// cost is charged in guestBlkSubmit.
		blk: virtio.BlkServer{
			Backend: blk, Chain: blkChain, Device: uint16(id),
			Cost: virtio.BlkCost{PerByte: h.p.HostPerByte},
		},
	}
	bg.vf = h.nic.AddVF(mac, nic.ModeInterrupt)
	h.guests = append(h.guests, bg)

	bg.g.sendNet = func(f ethernet.Frame) { h.guestSendNet(bg, f) }
	bg.vf.OnInterrupt(func(frames [][]byte) { h.hostReceive(bg, frames) })

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

// guestSendNet: guest stack -> ring -> exit (kick) -> vhost wakeup ->
// backend -> wire.
func (h *BaselineHost) guestSendNet(bg *baselineGuest, f ethernet.Frame) {
	stack := h.p.GuestNetStackCost + perByte(h.p.GuestTxPerByte, len(f.Payload))
	bg.g.VM.Compute(stack, func() {
		raw, err := f.Encode(0)
		if err != nil {
			panic(err)
		}
		// A full TX ring blocks the guest's send path (backpressure), as
		// virtio does; retry until a descriptor frees up.
		var post func()
		post = func() {
			if !bg.netQ.guestSend(raw) {
				h.eng.After(20*sim.Microsecond, post)
				return
			}
			// Bulk payloads kick the queue repeatedly (one exit per
			// BaselineKickBytes); small messages kick once.
			kicks := 1 + (len(f.Payload)-1)/h.p.BaselineKickBytes
			if len(f.Payload) == 0 {
				kicks = 1
			}
			bg.g.VM.ExitN(kicks, func() { // the kick(s) trap
				hypervisor.VhostWakeup(h.ioCore, h.p, func() {
					h.drainGuestTx(bg)
				})
			})
		}
		post()
	})
}

func (h *BaselineHost) drainGuestTx(bg *baselineGuest) {
	frames := bg.netQ.hostPopTx(0)
	for _, raw := range frames {
		raw := raw
		cost := h.p.HostBackendCost + perByte(h.p.HostPerByte, len(raw))
		h.ioCore.Exec(bg.id, cpu.KindBusy, cost, func() {
			f, err := ethernet.Decode(raw)
			if err != nil {
				return
			}
			payload, icost, err := bg.chain.Process(interpose.ToDevice, uint16(bg.id), f.Payload)
			if err != nil {
				return // dropped by policy
			}
			out := f
			out.Payload = payload
			finish := func() {
				if err := bg.vf.SendFrame(out); err != nil {
					panic(err)
				}
				// TX-completion interrupt from the physical NIC; the host
				// then injects the completion into the guest (whose EOI
				// write exits — baseline exit #2 or #3 of Table 3).
				hypervisor.HostIRQ(h.ioCore, h.p, &bg.g.VM.Counters,
					hypervisor.CounterHostIRQs, func() {
						bg.g.VM.GuestIRQInjected(h.ioCore, func() { bg.netQ.guestReapTx() })
					})
			}
			if icost > 0 {
				h.ioCore.Exec(bg.id, cpu.KindBusy, icost, finish)
			} else {
				finish()
			}
		})
	}
}

// hostReceive: physical IRQ on the host core -> backend copies frames into
// the guest rx ring -> injected interrupt -> guest reaps (EOI exits).
func (h *BaselineHost) hostReceive(bg *baselineGuest, frames [][]byte) {
	hypervisor.HostIRQ(h.ioCore, h.p, &bg.g.VM.Counters, hypervisor.CounterHostIRQs, func() {
		cost := h.p.HostBackendCost * sim.Time(len(frames))
		h.ioCore.Exec(bg.id, cpu.KindBusy, cost, func() {
			delivered := 0
			for _, raw := range frames {
				f, err := ethernet.Decode(raw)
				if err != nil {
					continue
				}
				payload, _, err := bg.chain.Process(interpose.ToGuest, uint16(bg.id), f.Payload)
				if err != nil {
					continue
				}
				in := f
				in.Payload = payload
				enc, _ := in.Encode(0)
				if bg.netQ.hostDeliver(enc) {
					delivered++
				}
			}
			if delivered == 0 {
				return
			}
			bg.g.VM.GuestIRQInjected(h.ioCore, func() {
				for _, raw := range bg.netQ.guestReapRx() {
					f, err := ethernet.Decode(raw)
					if err != nil {
						continue
					}
					bg.g.VM.Compute(h.p.GuestNetStackCost, func() { bg.g.deliverNet(f) })
				}
			})
		})
	})
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
