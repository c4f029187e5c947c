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

// ElvisHost is the sidecore configuration (§2 "Elvis"): dedicated host
// sidecores poll the guests' virtqueues, so guests never exit; completions
// are delivered exitless (ELI IPIs). The physical NIC, however, still
// interrupts the host — the "host intrpts" column of Table 3 that vRIO
// eliminates.
type ElvisHost struct {
	eng  *sim.Engine
	p    *params.P
	name string
	nic  *nic.NIC
	rng  *sim.RNG

	sidecores []*cpu.Core
	scanArmed []bool

	guests []*elvisGuest
}

type elvisGuest struct {
	g       *Guest
	id      int
	netQ    *netQueues
	blkQ    *blkQueue
	blkDone map[uint16]func([]byte, error)
	vf      *nic.VF
	chain   *interpose.Chain
	blk     blockdev.Backend
	// side is the sidecore serving this guest (round-robin assignment,
	// matching Elvis's static VM-to-sidecore mapping).
	side int
}

// NewElvisHost builds the host with its dedicated sidecores.
func NewElvisHost(eng *sim.Engine, p *params.P, name string, sidecores []*cpu.Core, hostNIC *nic.NIC, seed uint64) *ElvisHost {
	if len(sidecores) == 0 {
		panic("core: elvis host needs at least one sidecore")
	}
	h := &ElvisHost{
		eng: eng, p: p, name: name, nic: hostNIC,
		sidecores: sidecores,
		scanArmed: make([]bool, len(sidecores)),
		rng:       sim.NewRNG(seed ^ 0xe15715),
	}
	for i, sc := range sidecores {
		i := i
		sc.Polling = true
		sc.OnIdle = func() { h.armScan(i) }
	}
	return h
}

// Name reports the host name.
func (h *ElvisHost) Name() string { return h.name }

// Sidecores exposes the sidecore list (for utilization reporting).
func (h *ElvisHost) Sidecores() []*cpu.Core { return h.sidecores }

// AddVM provisions a VM, statically assigned to a sidecore round-robin.
func (h *ElvisHost) AddVM(id int, core *cpu.Core, mac ethernet.MAC, blk blockdev.Backend, chain *interpose.Chain) *Guest {
	if chain == nil {
		chain = interpose.NewChain()
	}
	eg := &elvisGuest{
		g:     &Guest{VM: hypervisor.NewVM(h.eng, h.p, id, core), netMAC: mac},
		id:    id,
		netQ:  newNetQueues(),
		chain: chain,
		blk:   blk,
		side:  len(h.guests) % len(h.sidecores),
	}
	eg.vf = h.nic.AddVF(mac, nic.ModeInterrupt)
	h.guests = append(h.guests, eg)

	eg.g.sendNet = func(f ethernet.Frame) {
		stack := h.p.GuestNetStackCost + perByte(h.p.GuestTxPerByte, len(f.Payload))
		eg.g.VM.Compute(stack, func() {
			raw, err := f.Encode(0)
			if err != nil {
				panic(err)
			}
			// Backpressure on a full ring, as with the baseline.
			var post func()
			post = func() {
				if !eg.netQ.guestSend(raw) {
					h.eng.After(20*sim.Microsecond, post)
					return
				}
				h.armScan(eg.side) // no exit: the sidecore will notice
			}
			post()
		})
	}

	eg.vf.OnInterrupt(func(frames [][]byte) { h.hostReceive(eg, frames) })

	if blk != nil {
		eg.blkQ = newBlkQueue()
		eg.blkDone = make(map[uint16]func([]byte, error))
		// Guest-side per-op CPU: stack + exitless completion.
		eg.g.blkCPU = func(int) sim.Time {
			return h.p.GuestNetStackCost + h.p.ELIDeliveryCost + h.p.GuestIRQCost
		}
		eg.g.blkWrite = func(sector uint64, data []byte, done func(error)) {
			h.guestBlkSubmit(eg, blkWriteReq(sector, data), 1, func(resp []byte, err error) {
				if err == nil && (len(resp) < 1 || resp[0] != virtio.BlkOK) {
					err = blockdev.ErrDeviceFailed
				}
				done(err)
			})
		}
		eg.g.blkRead = func(sector uint64, sectors int, done func([]byte, error)) {
			req := virtio.BlkHdr{Type: virtio.BlkIn, Sector: sector}.Encode(nil)
			var n [4]byte
			binary.LittleEndian.PutUint32(n[:], uint32(sectors))
			req = append(req, n[:]...)
			h.guestBlkSubmit(eg, req, 1+sectors*h.p.SectorSize, func(resp []byte, err error) {
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
	}
	return eg.g
}

func (h *ElvisHost) guestBlkSubmit(eg *elvisGuest, req []byte, respCap int, done func([]byte, error)) {
	eg.g.VM.Compute(h.p.GuestNetStackCost, func() {
		head, ok := eg.blkQ.guestSubmit(req, respCap)
		if !ok {
			done(nil, virtio.ErrRingFull)
			return
		}
		eg.blkDone[head] = done
		h.armScan(eg.side) // no exit
	})
}

// armScan wakes sidecore i's poll loop within one poll interval, if it is
// idle and not already about to scan.
func (h *ElvisHost) armScan(i int) {
	sc := h.sidecores[i]
	if sc.Busy() || h.scanArmed[i] {
		return
	}
	h.scanArmed[i] = true
	delay := h.rng.Range(1, h.p.PollInterval)
	if h.p.MwaitEnabled {
		delay += h.p.MwaitWakeLatency // §4.6: low-power wait, slower wake
	}
	h.eng.After(delay, func() {
		h.scanArmed[i] = false
		h.scan(i)
	})
}

// scan drains the rings of every guest assigned to sidecore i.
func (h *ElvisHost) scan(i int) {
	found := false
	for _, eg := range h.guests {
		if eg.side != i {
			continue
		}
		for _, raw := range eg.netQ.hostPopTx(0) {
			found = true
			h.serveNetTx(i, eg, raw)
		}
		if eg.blkQ != nil {
			for {
				c, ok := eg.blkQ.hostPop()
				if !ok {
					break
				}
				found = true
				h.serveBlk(i, eg, c)
			}
		}
	}
	if found {
		h.armScan(i)
	}
}

// serveNetTx: sidecore processes one transmitted frame and hands it to the
// physical NIC.
func (h *ElvisHost) serveNetTx(i int, eg *elvisGuest, raw []byte) {
	cost := h.p.SidecoreServiceCost + perByte(h.p.SidecorePerByte, len(raw))
	h.sidecores[i].Exec(cpu.NoOwner, cpu.KindBusy, cost, func() {
		f, err := ethernet.Decode(raw)
		if err != nil {
			return
		}
		payload, icost, err := eg.chain.Process(interpose.ToDevice, uint16(eg.id), f.Payload)
		if err != nil {
			return
		}
		out := f
		out.Payload = payload
		send := func() {
			if err := eg.vf.SendFrame(out); err != nil {
				panic(err)
			}
			// The physical NIC raises a TX-completion interrupt, handled
			// by the sidecore — the second host interrupt of Table 3 and
			// the load that lets vRIO overtake Elvis at high N (§4.2).
			hypervisor.HostIRQ(h.sidecores[i], h.p, &eg.g.VM.Counters,
				hypervisor.CounterHostIRQs, func() {
					// The sidecore then notifies the guest exitless, and
					// the guest reclaims its TX descriptors.
					eg.g.VM.GuestIRQExitless(func() { eg.netQ.guestReapTx() })
				})
		}
		if icost > 0 {
			h.sidecores[i].Exec(cpu.NoOwner, cpu.KindBusy, icost, send)
		} else {
			send()
		}
	})
}

// hostReceive: the physical NIC interrupts the sidecore (Elvis's extra
// cost); the sidecore fills guest rx buffers and sends an exitless IPI.
func (h *ElvisHost) hostReceive(eg *elvisGuest, frames [][]byte) {
	sc := h.sidecores[eg.side]
	hypervisor.HostIRQ(sc, h.p, &eg.g.VM.Counters, hypervisor.CounterHostIRQs, func() {
		cost := h.p.SidecoreServiceCost * sim.Time(len(frames))
		sc.Exec(cpu.NoOwner, cpu.KindBusy, cost, func() {
			delivered := 0
			for _, raw := range frames {
				f, err := ethernet.Decode(raw)
				if err != nil {
					continue
				}
				payload, _, err := eg.chain.Process(interpose.ToGuest, uint16(eg.id), f.Payload)
				if err != nil {
					continue
				}
				in := f
				in.Payload = payload
				enc, _ := in.Encode(0)
				if eg.netQ.hostDeliver(enc) {
					delivered++
				}
			}
			if delivered == 0 {
				return
			}
			eg.g.VM.GuestIRQExitless(func() {
				for _, raw := range eg.netQ.guestReapRx() {
					f, err := ethernet.Decode(raw)
					if err != nil {
						continue
					}
					eg.g.VM.Compute(h.p.GuestNetStackCost, func() { eg.g.deliverNet(f) })
				}
			})
		})
	})
}

// serveBlk: sidecore executes the block request on the local backend; the
// ramdisk completion returns on the sidecore, which notifies the guest
// exitless.
func (h *ElvisHost) serveBlk(i int, eg *elvisGuest, c virtio.Chain) {
	sc := h.sidecores[i]
	sc.Exec(cpu.NoOwner, cpu.KindBusy, h.p.SidecoreServiceCost+h.p.BlockServiceCost, func() {
		bh, body, err := virtio.DecodeBlkHdr(c.Out)
		if err != nil {
			h.completeBlk(eg, c, []byte{virtio.BlkIOErr})
			return
		}
		switch bh.Type {
		case virtio.BlkOut:
			payload, icost, perr := eg.chain.Process(interpose.ToDevice, uint16(eg.id), body)
			if perr != nil {
				h.completeBlk(eg, c, []byte{virtio.BlkIOErr})
				return
			}
			doSubmit := func() {
				eg.blk.Submit(blockdev.Request{Op: blockdev.OpWrite, Sector: bh.Sector, Data: payload},
					func(r blockdev.Response) { h.completeBlk(eg, c, blkReply(r.Err, nil)) })
			}
			if icost > 0 {
				sc.Exec(cpu.NoOwner, cpu.KindBusy, icost, doSubmit)
			} else {
				doSubmit()
			}
		case virtio.BlkIn:
			n := int(binary.LittleEndian.Uint32(body))
			eg.blk.Submit(blockdev.Request{Op: blockdev.OpRead, Sector: bh.Sector, Sectors: n},
				func(r blockdev.Response) {
					if r.Err != nil {
						h.completeBlk(eg, c, blkReply(r.Err, nil))
						return
					}
					data, icost, perr := eg.chain.Process(interpose.ToGuest, uint16(eg.id), r.Data)
					if perr != nil {
						h.completeBlk(eg, c, []byte{virtio.BlkIOErr})
						return
					}
					out := blkReply(nil, data) // copies the borrowed read data
					if icost > 0 {
						sc.Exec(cpu.NoOwner, cpu.KindBusy, icost, func() { h.completeBlk(eg, c, out) })
					} else {
						h.completeBlk(eg, c, out)
					}
				})
		default:
			h.completeBlk(eg, c, []byte{virtio.BlkUnsupp})
		}
	})
}

func (h *ElvisHost) completeBlk(eg *elvisGuest, c virtio.Chain, resp []byte) {
	eg.blkQ.hostComplete(c, resp)
	eg.g.VM.GuestIRQExitless(func() {
		for _, comp := range eg.blkQ.guestReap() {
			if done := eg.blkDone[comp.Head]; done != nil {
				delete(eg.blkDone, comp.Head)
				done(comp.In, nil)
			}
		}
	})
}
