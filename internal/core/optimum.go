package core

import (
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/hypervisor"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
)

// OptimumHost is the SRIOV+ELI configuration (§2 "Optimum"): every VM owns
// a virtual function of the host NIC and receives its interrupts exitless.
// There is no host I/O processing at all — and therefore no interposition.
type OptimumHost struct {
	eng *sim.Engine
	p   *params.P
	nic *nic.NIC
}

// NewOptimumHost builds the host around its (already cabled) NIC.
func NewOptimumHost(eng *sim.Engine, p *params.P, hostNIC *nic.NIC) *OptimumHost {
	return &OptimumHost{eng: eng, p: p, nic: hostNIC}
}

// AddVM provisions a VM with a dedicated SRIOV VF. Optimum has no
// paravirtual block path (§5: "there is no such thing as an SRIOV
// ramdisk").
func (h *OptimumHost) AddVM(id int, core *cpu.Core, mac ethernet.MAC) *Guest {
	vf := h.nic.AddVF(mac, nic.ModeInterrupt)
	g := newGuest(hypervisor.NewVM(h.eng, h.p, id, core), h.p, mac, vf.Pool())

	// TX-completion interrupt, delivered exitless — the second guest
	// interrupt of Table 3.
	txIRQ := func() { g.VM.GuestIRQExitless(nil) }
	g.txFn = func() {
		raw := g.txq.Pop()
		f, _ := ethernet.Decode(raw)
		if err := vf.SendFrame(f); err != nil {
			panic(err)
		}
		g.pool.PutRaw(raw)
		h.eng.After(h.p.NICProcessCost, txIRQ)
	}
	g.sendNet = func(f ethernet.Frame) {
		// Guest network stack, then straight to the VF: no exit, no host.
		g.queueSend(f, h.p.GuestNetStackCost+perByte(h.p.GuestTxPerByte, len(f.Payload)))
	}

	// ELI delivers the device interrupt directly to the guest; the guest
	// stack then processes each frame of the coalesced batch.
	var irqs nic.BatchQueue
	rx := func() {
		for _, raw := range irqs.Pop() {
			g.receiveNet(g.pool.Wrap(raw, raw), h.p.GuestNetStackCost)
		}
	}
	vf.OnInterrupt(func(frames [][]byte) {
		irqs.Push(frames)
		g.VM.GuestIRQExitless(rx)
	})
	return g
}
