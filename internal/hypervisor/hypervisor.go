// Package hypervisor models the local-hypervisor mechanisms whose costs
// differentiate the I/O models (Table 3): synchronous guest exits,
// interrupt injection with its EOI exits, exitless (ELI) delivery, and host
// physical-interrupt handling. The per-VM counters it maintains are what
// the Table 3 experiment reports — counted, not assumed.
package hypervisor

import (
	"vrio/internal/cpu"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/stats"
)

// Counter names recorded by this package.
const (
	CounterExits      = "exits"
	CounterGuestIRQs  = "guest_irqs"
	CounterInjections = "irq_injections"
	CounterHostIRQs   = "host_irqs"
)

// VM is one guest virtual machine: a VCPU pinned to (or sharing) a core.
type VM struct {
	p *params.P

	// ID identifies the VM; it is the context-switch owner on shared cores.
	ID int
	// Core is where the VCPU executes.
	Core *cpu.Core

	// Counters accumulates the Table 3 event counts for this VM.
	Counters stats.Counters

	// Injected interrupts in flight: the handlers waiting on the host core
	// for the injection (injq) and on the VCPU for the guest handler (eoiq),
	// drained FIFO by the prebound injectFn and eoiFn. Each stage runs on
	// one core, which completes work in order, so no interrupt needs a
	// closure of its own.
	injCore         *cpu.Core
	injq, eoiq      sim.FIFO[func()]
	injectFn, eoiFn func()
}

// NewVM builds a VM on the given core.
func NewVM(p *params.P, id int, core *cpu.Core) *VM {
	vm := &VM{p: p, ID: id, Core: core}
	vm.injectFn = func() {
		vm.Counters.Inc(CounterGuestIRQs, 1)
		vm.eoiq.Push(vm.injq.Pop())
		vm.Core.Exec(vm.ID, cpu.KindIRQ, vm.p.GuestIRQCost, vm.eoiFn)
	}
	vm.eoiFn = func() { vm.Exit(vm.eoiq.Pop()) } // EOI write traps without ELI
	return vm
}

// Compute runs guest work (application + guest kernel time) on the VCPU.
func (vm *VM) Compute(d sim.Time, fn func()) {
	vm.Core.Exec(vm.ID, cpu.KindBusy, d, fn)
}

// Exit models one synchronous guest exit (trap): the paravirtual kick of
// the baseline model, or an EOI write without ELI. fn runs in host context
// after the world switch.
func (vm *VM) Exit(fn func()) {
	vm.ExitN(1, fn)
}

// ExitN charges n back-to-back exits as one work item (bulk transmits kick
// the baseline's virtqueue repeatedly).
func (vm *VM) ExitN(n int, fn func()) {
	if n < 1 {
		n = 1
	}
	vm.Counters.Inc(CounterExits, uint64(n))
	vm.Core.Exec(vm.ID, cpu.KindExit, sim.Time(n)*vm.p.ExitCost, fn)
}

// GuestIRQExitless delivers a virtual interrupt straight to the guest via
// ELI (§2 "optimum", Elvis, and vRIO all use this): no host involvement,
// no EOI exit.
func (vm *VM) GuestIRQExitless(fn func()) {
	vm.Counters.Inc(CounterGuestIRQs, 1)
	vm.Core.Exec(vm.ID, cpu.KindIRQ, vm.p.ELIDeliveryCost+vm.p.GuestIRQCost, fn)
}

// GuestIRQInjected delivers a virtual interrupt the baseline way: the host
// injects it (cost on hostCore), the guest handles it, and the guest's EOI
// write traps (one more exit); fn runs after that exit. Every injection into
// one VM must come from the same host core.
func (vm *VM) GuestIRQInjected(hostCore *cpu.Core, fn func()) {
	if vm.injCore == nil {
		vm.injCore = hostCore
	} else if hostCore != vm.injCore {
		panic("hypervisor: a VM's interrupts must be injected from one host core")
	}
	vm.Counters.Inc(CounterInjections, 1)
	vm.injq.Push(fn)
	hostCore.Exec(cpu.NoOwner, cpu.KindIRQ, vm.p.InjectCost, vm.injectFn)
}

// HostIRQ models a physical interrupt handled by a host core (the Elvis
// and baseline backing-device interrupts of Table 3). counters may be nil.
func HostIRQ(core *cpu.Core, p *params.P, counters *stats.Counters, name string, fn func()) {
	if counters != nil {
		counters.Inc(name, 1)
	}
	core.Exec(cpu.NoOwner, cpu.KindIRQ, p.HostIRQCost, fn)
}

// VhostWakeup models the baseline's vhost I/O-thread scheduling: before host
// backend work runs, the scheduler must wake the I/O thread on some core.
func VhostWakeup(core *cpu.Core, p *params.P, fn func()) {
	core.Exec(cpu.NoOwner, cpu.KindBusy, p.VhostWakeupCost, fn)
}
