package hypervisor

import (
	"testing"

	"vrio/internal/cpu"
	"vrio/internal/params"
	"vrio/internal/sim"
)

func setup() (*sim.Engine, *params.P, *cpu.Core, *cpu.Core) {
	e := sim.NewEngine()
	p := params.Default()
	vmCore := cpu.New(e, p.ContextSwitchCost)
	hostCore := cpu.New(e, p.ContextSwitchCost)
	return e, &p, vmCore, hostCore
}

func TestComputeChargesVCPU(t *testing.T) {
	e, p, core, _ := setup()
	vm := NewVM(p, 1, core)
	ran := false
	vm.Compute(1000, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("compute callback did not run")
	}
	if core.Accounted(cpu.KindBusy) != 1000 {
		t.Errorf("busy = %v", core.Accounted(cpu.KindBusy))
	}
}

func TestExitCountsAndCharges(t *testing.T) {
	e, p, core, _ := setup()
	vm := NewVM(p, 1, core)
	vm.Exit(nil)
	e.Run()
	if vm.Counters.Get(CounterExits) != 1 {
		t.Errorf("exits = %d", vm.Counters.Get(CounterExits))
	}
	if core.Accounted(cpu.KindExit) != p.ExitCost {
		t.Errorf("exit time = %v, want %v", core.Accounted(cpu.KindExit), p.ExitCost)
	}
}

func TestExitlessIRQ(t *testing.T) {
	e, p, core, _ := setup()
	vm := NewVM(p, 1, core)
	done := false
	vm.GuestIRQExitless(func() { done = true })
	e.Run()
	if !done {
		t.Fatal("handler did not run")
	}
	if vm.Counters.Get(CounterGuestIRQs) != 1 {
		t.Errorf("guest_irqs = %d", vm.Counters.Get(CounterGuestIRQs))
	}
	// Crucially: zero exits and zero injections.
	if vm.Counters.Get(CounterExits) != 0 || vm.Counters.Get(CounterInjections) != 0 {
		t.Errorf("ELI path generated exits/injections: %s", vm.Counters.String())
	}
	want := p.ELIDeliveryCost + p.GuestIRQCost
	if core.Accounted(cpu.KindIRQ) != want {
		t.Errorf("irq time = %v, want %v", core.Accounted(cpu.KindIRQ), want)
	}
}

func TestInjectedIRQFullCost(t *testing.T) {
	e, p, vmCore, hostCore := setup()
	vm := NewVM(p, 1, vmCore)
	done := false
	vm.GuestIRQInjected(hostCore, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("handler did not run")
	}
	// One injection, one guest IRQ, one EOI exit.
	if vm.Counters.Get(CounterInjections) != 1 ||
		vm.Counters.Get(CounterGuestIRQs) != 1 ||
		vm.Counters.Get(CounterExits) != 1 {
		t.Errorf("counters: %s", vm.Counters.String())
	}
	if hostCore.Accounted(cpu.KindIRQ) != p.InjectCost {
		t.Errorf("host inject time = %v", hostCore.Accounted(cpu.KindIRQ))
	}
	if vmCore.Accounted(cpu.KindExit) != p.ExitCost {
		t.Errorf("EOI exit time = %v", vmCore.Accounted(cpu.KindExit))
	}
}

func TestHostIRQ(t *testing.T) {
	e, p, _, hostCore := setup()
	vm := NewVM(p, 1, hostCore)
	HostIRQ(hostCore, p, &vm.Counters, CounterHostIRQs, nil)
	HostIRQ(hostCore, p, nil, CounterHostIRQs, nil) // nil counters tolerated
	e.Run()
	if vm.Counters.Get(CounterHostIRQs) != 1 {
		t.Errorf("host_irqs = %d", vm.Counters.Get(CounterHostIRQs))
	}
	if hostCore.Accounted(cpu.KindIRQ) != 2*p.HostIRQCost {
		t.Errorf("irq time = %v", hostCore.Accounted(cpu.KindIRQ))
	}
}

// Per-request-response event sums must reproduce Table 3's rows when
// composed the way each model composes them.
func TestTable3Composition(t *testing.T) {
	// optimum / vrio-with-poll: 2 exitless guest interrupts, nothing else.
	e, p, core, host := setup()
	vm := NewVM(p, 1, core)
	vm.GuestIRQExitless(nil)
	vm.GuestIRQExitless(nil)
	e.Run()
	if got := vm.Counters.Get(CounterExits) + vm.Counters.Get(CounterInjections) +
		vm.Counters.Get(CounterHostIRQs); got != 0 {
		t.Errorf("optimum overhead events = %d, want 0", got)
	}
	if vm.Counters.Get(CounterGuestIRQs) != 2 {
		t.Errorf("guest irqs = %d, want 2", vm.Counters.Get(CounterGuestIRQs))
	}

	// baseline: 1 kick exit + 2 injected IRQs (2 injections, 2 guest IRQs,
	// 2 EOI exits) + 2 host IRQs -> exits=3, injections=2, host=2.
	e2, p2, core2, host2 := setup()
	_ = host
	vm2 := NewVM(p2, 1, core2)
	vm2.Exit(func() {
		HostIRQ(host2, p2, &vm2.Counters, CounterHostIRQs, func() {
			vm2.GuestIRQInjected(host2, nil)
		})
		HostIRQ(host2, p2, &vm2.Counters, CounterHostIRQs, func() {
			vm2.GuestIRQInjected(host2, nil)
		})
	})
	e2.Run()
	if vm2.Counters.Get(CounterExits) != 3 {
		t.Errorf("baseline exits = %d, want 3", vm2.Counters.Get(CounterExits))
	}
	if vm2.Counters.Get(CounterInjections) != 2 {
		t.Errorf("baseline injections = %d, want 2", vm2.Counters.Get(CounterInjections))
	}
	if vm2.Counters.Get(CounterHostIRQs) != 2 {
		t.Errorf("baseline host irqs = %d, want 2", vm2.Counters.Get(CounterHostIRQs))
	}
	if vm2.Counters.Get(CounterGuestIRQs) != 2 {
		t.Errorf("baseline guest irqs = %d, want 2", vm2.Counters.Get(CounterGuestIRQs))
	}
}

func TestVhostWakeup(t *testing.T) {
	e, p, _, host := setup()
	ran := false
	VhostWakeup(host, p, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("wakeup callback did not run")
	}
	if host.Accounted(cpu.KindBusy) != p.VhostWakeupCost {
		t.Errorf("wakeup time = %v", host.Accounted(cpu.KindBusy))
	}
}
