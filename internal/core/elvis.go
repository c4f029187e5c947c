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
	g    *Guest
	blkQ *blkQueue
	blk  virtio.BlkServer
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
// When blk is non-nil the VM gets a block device backed by it. netChain and
// blkChain (optional) interpose on the VM's net and block traffic.
func (h *ElvisHost) AddVM(id int, core *cpu.Core, mac ethernet.MAC, blk blockdev.Backend, netChain, blkChain *interpose.Chain) *Guest {
	if blkChain == nil {
		blkChain = interpose.NewChain()
	}
	eg := &elvisGuest{
		g: &Guest{VM: hypervisor.NewVM(h.eng, h.p, id, core), netMAC: mac},
		// Elvis charges its block service in scan; the back end adds only
		// interposition.
		blk:  virtio.BlkServer{Backend: blk, Chain: blkChain, Device: uint16(id)},
		side: len(h.guests) % len(h.sidecores),
	}
	// The guest's sidecore serves the device: posting a frame costs no exit
	// (the sidecore's poll loop notices), and completions reach the guest
	// exitless (ELI).
	n := newHostNet(h.eng, h.p, eg.g, id, h.nic, netChain)
	n.core, n.owner = h.sidecores[eg.side], cpu.NoOwner
	n.cost, n.perByte = h.p.SidecoreServiceCost, h.p.SidecorePerByte
	n.kick = func(int) { h.armScan(eg.side) }
	n.notify = eg.g.VM.GuestIRQExitless
	h.guests = append(h.guests, eg)

	if blk != nil {
		eg.blkQ = newBlkQueue()
		// Guest-side per-op CPU: stack + exitless completion.
		eg.g.blkCPU = func(int) sim.Time {
			return h.p.GuestNetStackCost + h.p.ELIDeliveryCost + h.p.GuestIRQCost
		}
		eg.g.blkSubmit = func(req []byte, sectors int, done func([]byte, error)) {
			h.guestBlkSubmit(eg, req, 1+sectors*h.p.SectorSize, done)
		}
		eg.g.blkWrite, eg.g.blkRead = eg.g.ringWrite, eg.g.ringRead
	}
	return eg.g
}

func (h *ElvisHost) guestBlkSubmit(eg *elvisGuest, req []byte, respCap int, done func([]byte, error)) {
	eg.g.VM.Compute(h.p.GuestNetStackCost, func() {
		if !eg.blkQ.guestSubmit(req, respCap, done) {
			done(nil, virtio.ErrRingFull)
			return
		}
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
		if eg.g.net.drainTx() > 0 {
			found = true
		}
		if eg.blkQ != nil {
			for {
				c, ok := eg.blkQ.hostPop()
				if !ok {
					break
				}
				found = true
				call := &elvisBlk{h: h, eg: eg, c: c}
				h.sidecores[i].Exec(cpu.NoOwner, cpu.KindBusy, h.p.SidecoreServiceCost+h.p.BlockServiceCost, call.serve)
			}
		}
	}
	if found {
		h.armScan(i)
	}
}

// elvisBlk is Elvis's virtio.BlkSite for one request: the guest's sidecore
// serves it and notifies the guest exitless.
type elvisBlk struct {
	h  *ElvisHost
	eg *elvisGuest
	c  virtio.Chain
}

// serve runs the request through the guest's block back end.
func (b *elvisBlk) serve() { b.eg.blk.Serve(b, b.c.Out) }

// Charge implements virtio.BlkSite.
func (b *elvisBlk) Charge(cost sim.Time, fn func()) {
	b.h.sidecores[b.eg.side].Exec(cpu.NoOwner, cpu.KindBusy, cost, fn)
}

// Completed implements virtio.BlkSite.
func (b *elvisBlk) Completed() {}

// Reply completes the chain and notifies the guest exitless.
func (b *elvisBlk) Reply(resp []byte) {
	b.eg.blkQ.hostComplete(b.c, resp)
	b.eg.g.VM.GuestIRQExitless(b.eg.blkQ.reapFn)
}
