package core

import (
	"encoding/binary"

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
	g       *Guest
	id      int
	netQ    *netQueues
	blkQ    *blkQueue
	blkDone map[uint16]func([]byte, error) // per-chain completion, keyed by head
	vf      *nic.VF
	chain   *interpose.Chain
	blk     blockdev.Backend
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
// a virtio block device backed by it. chain (optional) interposes on net
// traffic in the host backend.
func (h *BaselineHost) AddVM(id int, core *cpu.Core, mac ethernet.MAC, blk blockdev.Backend, chain *interpose.Chain) *Guest {
	if chain == nil {
		chain = interpose.NewChain()
	}
	bg := &baselineGuest{
		g:     &Guest{VM: hypervisor.NewVM(h.eng, h.p, id, core), netMAC: mac},
		id:    id,
		netQ:  newNetQueues(),
		chain: chain,
		blk:   blk,
	}
	bg.vf = h.nic.AddVF(mac, nic.ModeInterrupt)
	h.guests = append(h.guests, bg)

	bg.g.sendNet = func(f ethernet.Frame) { h.guestSendNet(bg, f) }
	bg.vf.OnInterrupt(func(frames [][]byte) { h.hostReceive(bg, frames) })

	if blk != nil {
		bg.blkQ = newBlkQueue()
		bg.blkDone = make(map[uint16]func([]byte, error))
		// Guest-side per-op CPU: stack + kick exit + injected completion
		// (guest IRQ handler + EOI exit).
		bg.g.blkCPU = func(int) sim.Time {
			return h.p.GuestNetStackCost + 2*h.p.ExitCost + h.p.GuestIRQCost
		}
		bg.g.blkWrite = func(sector uint64, data []byte, done func(error)) {
			h.guestBlkWrite(bg, sector, data, done)
		}
		bg.g.blkRead = func(sector uint64, sectors int, done func([]byte, error)) {
			h.guestBlkRead(bg, sector, sectors, done)
		}
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

func (h *BaselineHost) guestBlkWrite(bg *baselineGuest, sector uint64, data []byte, done func(error)) {
	h.guestBlkSubmit(bg, blkWriteReq(sector, data), 1, func(resp []byte, err error) {
		if err == nil && (len(resp) < 1 || resp[0] != virtio.BlkOK) {
			err = blockdev.ErrDeviceFailed
		}
		done(err)
	})
}

func (h *BaselineHost) guestBlkRead(bg *baselineGuest, sector uint64, sectors int, done func([]byte, error)) {
	req := virtio.BlkHdr{Type: virtio.BlkIn, Sector: sector}.Encode(nil)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(sectors))
	req = append(req, n[:]...)
	h.guestBlkSubmit(bg, req, 1+sectors*h.p.SectorSize, func(resp []byte, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		if len(resp) < 1 || resp[0] != virtio.BlkOK {
			done(nil, blockdev.ErrDeviceFailed)
			return
		}
		done(resp[1:], nil)
	})
}

// guestBlkSubmit: ring -> exit -> vhost wakeup -> backend -> device ->
// host IRQ -> injected completion -> reap.
func (h *BaselineHost) guestBlkSubmit(bg *baselineGuest, req []byte, respCap int, done func([]byte, error)) {
	bg.g.VM.Compute(h.p.GuestNetStackCost, func() {
		head, ok := bg.blkQ.guestSubmit(req, respCap)
		if !ok {
			done(nil, virtio.ErrRingFull)
			return
		}
		bg.blkDone[head] = done
		bg.g.VM.Exit(func() {
			hypervisor.VhostWakeup(h.ioCore, h.p, func() {
				h.ioCore.Exec(bg.id, cpu.KindBusy, h.p.BlockServiceCost, func() {
					h.serveBlk(bg)
				})
			})
		})
	})
}

func (h *BaselineHost) serveBlk(bg *baselineGuest) {
	c, ok := bg.blkQ.hostPop()
	if !ok {
		return // already served by an earlier kick's drain
	}
	bh, body, err := virtio.DecodeBlkHdr(c.Out)
	if err != nil {
		bg.blkQ.hostComplete(c, []byte{virtio.BlkIOErr})
		h.completeBlk(bg)
		return
	}
	respond := func(resp []byte) {
		// Completion: physical-style device interrupt on the host.
		hypervisor.HostIRQ(h.ioCore, h.p, &bg.g.VM.Counters, hypervisor.CounterHostIRQs, func() {
			bg.blkQ.hostComplete(c, resp)
			h.completeBlk(bg)
		})
	}
	switch bh.Type {
	case virtio.BlkOut:
		// The baseline's vhost path copies block payloads.
		h.ioCore.Exec(bg.id, cpu.KindBusy, perByte(h.p.HostPerByte, len(body)), func() {
			bg.blk.Submit(blockdev.Request{Op: blockdev.OpWrite, Sector: bh.Sector, Data: body},
				func(r blockdev.Response) { respond(blkReply(r.Err, nil)) })
		})
	case virtio.BlkIn:
		n := int(binary.LittleEndian.Uint32(body))
		bg.blk.Submit(blockdev.Request{Op: blockdev.OpRead, Sector: bh.Sector, Sectors: n},
			func(r blockdev.Response) {
				out := blkReply(r.Err, r.Data) // copies the borrowed read data
				h.ioCore.Exec(bg.id, cpu.KindBusy, perByte(h.p.HostPerByte, len(r.Data)), func() {
					respond(out)
				})
			})
	default:
		bg.blkQ.hostComplete(c, []byte{virtio.BlkUnsupp})
		h.completeBlk(bg)
	}
}

// completeBlk injects the completion interrupt; the guest reaps every
// finished chain and routes each to its submitter.
func (h *BaselineHost) completeBlk(bg *baselineGuest) {
	bg.g.VM.GuestIRQInjected(h.ioCore, func() {
		for _, comp := range bg.blkQ.guestReap() {
			if done := bg.blkDone[comp.Head]; done != nil {
				delete(bg.blkDone, comp.Head)
				done(comp.In, nil)
			}
		}
	})
}
