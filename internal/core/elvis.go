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

// ElvisHost is the sidecore configuration (§2 "Elvis"): dedicated host
// sidecores poll the guests' virtqueues, so guests never exit; completions
// are delivered exitless (ELI IPIs). The physical NIC, however, still
// interrupts the host — the "host intrpts" column of Table 3 that vRIO
// eliminates.
type ElvisHost struct {
	eng *sim.Engine
	p   *params.P
	nic *nic.NIC
	rng *sim.RNG

	sidecores []*cpu.Core
	scanArmed []bool
	// scanFns are the prebound poll-timer callbacks, one per sidecore (at
	// most one in flight each, guarded by scanArmed).
	scanFns []func()

	guests []elvisGuest
}

type elvisGuest struct {
	g *Guest
	// side is the sidecore serving this guest (round-robin assignment,
	// matching Elvis's static VM-to-sidecore mapping).
	side int
}

// NewElvisHost builds the host with its dedicated sidecores.
func NewElvisHost(eng *sim.Engine, p *params.P, sidecores []*cpu.Core, hostNIC *nic.NIC, seed uint64) *ElvisHost {
	if len(sidecores) == 0 {
		panic("core: elvis host needs at least one sidecore")
	}
	h := &ElvisHost{
		eng: eng, p: p, nic: hostNIC,
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

// AddVM provisions a VM, statically assigned to a sidecore round-robin.
// When blk is non-nil the VM gets a block device backed by it. netChain and
// blkChain (optional) interpose on the VM's net and block traffic.
func (h *ElvisHost) AddVM(id int, core *cpu.Core, mac ethernet.MAC, blk blockdev.Backend, netChain, blkChain *interpose.Chain) *Guest {
	g := newGuest(hypervisor.NewVM(h.eng, h.p, id, core), h.p, mac, h.nic.Pool())
	side := len(h.guests) % len(h.sidecores)
	h.guests = append(h.guests, elvisGuest{g: g, side: side})
	// The guest's sidecore serves the devices: posting a frame or a block
	// request costs no exit (the sidecore's poll loop notices), and
	// completions reach the guest exitless (ELI).
	n := newHostNet(h.eng, h.p, g, id, h.nic, netChain)
	n.core, n.owner = h.sidecores[side], cpu.NoOwner
	n.cost, n.perByte = h.p.SidecoreServiceCost, h.p.SidecorePerByte
	n.kick = func(int) { h.armScan(side) }
	n.notify = g.VM.GuestIRQExitless

	if blk != nil {
		// Elvis charges its block service when the scan pops a request; the
		// back end adds only interposition.
		b := newHostBlk(n, id, blk, blkChain)
		b.cost = h.p.SidecoreServiceCost + h.p.BlockServiceCost
		b.kick = func() { h.armScan(side) } // no exit
		// Guest-side per-op CPU beyond the stack: the exitless completion.
		g.blkDoneCost = h.p.ELIDeliveryCost + h.p.GuestIRQCost
	}
	return g
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
		if b := eg.g.blk; b != nil {
			for b.serveNext() {
				found = true
			}
		}
	}
	if found {
		h.armScan(i)
	}
}
