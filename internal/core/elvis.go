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
	// scanFns are the prebound poll-timer callbacks, one per sidecore (at
	// most one in flight each, guarded by scanArmed).
	scanFns []func()

	guests []*elvisGuest
}

type elvisGuest struct {
	g   *Guest
	blk virtio.BlkServer
	// sites recycles the block requests' sites and the chains they own.
	sites *bufpool.List[elvisBlk]
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
		sc.Polling = true
		sc.OnIdle = func() { h.armScan(i) }
		h.scanFns = append(h.scanFns, func() {
			h.scanArmed[i] = false
			h.scan(i)
		})
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
	pool := h.nic.Pool()
	eg := &elvisGuest{
		g: newGuest(hypervisor.NewVM(h.eng, h.p, id, core), h.p, mac, pool),
		// Elvis charges its block service in scan; the back end adds only
		// interposition.
		blk:  virtio.BlkServer{Backend: blk, Chain: blkChain, Device: uint16(id), Pool: pool},
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
		eg.g.blkQ = newBlkQueue(pool)
		eg.sites = bufpool.NewList("core elvis blk sites", func() *elvisBlk {
			b := &elvisBlk{h: h, eg: eg}
			b.serveFn = func() { eg.blk.Serve(b, b.c.Out...) }
			return b
		})
		// Guest-side per-op CPU: stack + exitless completion.
		eg.g.blkCPU = func(int) sim.Time {
			return h.p.GuestNetStackCost + h.p.ELIDeliveryCost + h.p.GuestIRQCost
		}
		eg.g.blkStackCost = func(int) sim.Time { return h.p.GuestNetStackCost }
		eg.g.blkPost = func(op *blkOp) {
			if eg.g.blkQ.guestSubmit(op) {
				h.armScan(eg.side) // no exit
			}
		}
		eg.g.blkBadStatus = blockdev.ErrDeviceFailed
	}
	return eg.g
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
	h.eng.After(delay, h.scanFns[i])
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
		if q := eg.g.blkQ; q != nil {
			for {
				b := eg.sites.Get()
				if ok, err := q.ring.PopInto(&b.c); err != nil || !ok {
					eg.sites.Put(b)
					break
				}
				found = true
				h.sidecores[i].Exec(cpu.NoOwner, cpu.KindBusy, h.p.SidecoreServiceCost+h.p.BlockServiceCost, b.serveFn)
			}
		}
	}
	if found {
		h.armScan(i)
	}
}

// elvisBlk is Elvis's virtio.BlkSite for one request: the guest's sidecore
// serves it and notifies the guest exitless. The site owns the chain its
// request was popped into, and the request buffers the ring handed over,
// until Reply, which recycles them.
type elvisBlk struct {
	h       *ElvisHost
	eg      *elvisGuest
	c       virtio.Chain
	serveFn func() // runs the request through the guest's block back end
}

// Charge implements virtio.BlkSite.
func (b *elvisBlk) Charge(cost sim.Time, fn func()) {
	b.h.sidecores[b.eg.side].Exec(cpu.NoOwner, cpu.KindBusy, cost, fn)
}

// Completed implements virtio.BlkSite.
func (b *elvisBlk) Completed() {}

// Reply hands the data, when there is any, and the status to the chain's
// writable descriptors, recycles the site and its request buffers, and
// notifies the guest exitless.
func (b *elvisBlk) Reply(status, data []byte) {
	eg := b.eg
	eg.g.blkQ.ring.Push(b.c, data, status)
	releaseChain(eg.g.pool, &b.c)
	eg.sites.Put(b)
	eg.g.VM.GuestIRQExitless(eg.g.blkQ.reapFn)
}
