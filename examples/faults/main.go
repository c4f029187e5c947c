// Deterministic fault injection (DESIGN.md §11): three hostile-fabric
// scenarios that the §4.5 transport and the rack control plane must absorb —
// a lossy channel under block writes, VF carrier flaps landing mid-migration,
// and an IOhost worker stall long enough to trip the heartbeat detector.
// Every run is byte-identical: the faults derive from FaultSeed through
// per-site forked RNG streams.
//
//	go run ./examples/faults
package main

import (
	"fmt"

	"vrio"
	"vrio/internal/cluster"
	"vrio/internal/fault"
	"vrio/internal/link"
	"vrio/internal/rack"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

func main() {
	demoLossyChannel()
	demoFlapMidMigration()
	demoStallRehome()
}

// writeLoads opens a closed loop of 4 KiB block writes, depth deep, on
// each of the first n guests. MQBlock's per-request ledger is the
// exactly-once check every demo makes at the end.
func writeLoads(tb *cluster.Testbed, n, depth int) []*workload.MQBlock {
	ws := make([]*workload.MQBlock, n)
	for i := range ws {
		ws[i] = workload.NewMQBlock(tb.Eng, tb.Guests[i].WriteBlockQ, 1, depth, 4096)
		ws[i].Start()
	}
	return ws
}

// drain closes the loops at stopAt, runs tb until until and returns the
// loops' summed ledger.
func drain(tb *cluster.Testbed, ws []*workload.MQBlock, stopAt, until sim.Time) (l workload.Ledger) {
	tb.Eng.At(stopAt, func() {
		for _, w := range ws {
			w.Stop()
		}
	})
	tb.Eng.RunUntil(until)
	for _, w := range ws {
		wl := w.Ledger()
		l.Completed += wl.Completed
		l.Dup += wl.Dup
		l.Lost += wl.Lost
		l.Errs += wl.Errs
	}
	return l
}

// demoLossyChannel: 2% frame loss (+0.5% corruption) on every channel cable
// while two guests hammer their remote block devices. The §4.5 machinery
// absorbs it: throughput dips, but every write completes exactly once.
func demoLossyChannel() {
	fmt.Println("== lossy channel: 2% frame loss + 0.5% corruption on the vRIO channels ==")
	tb := cluster.Build(cluster.Spec{
		Model: vrio.ModelVRIO, VMsPerHost: 2, WithBlock: true,
		Seed: 31, Fault: fault.Lossy(0.02), FaultSeed: 7,
	})
	ws := writeLoads(tb, len(tb.Guests), 8)
	// Drain past the full retransmission budget so the ledger is final.
	l := drain(tb, ws, 30*sim.Millisecond, 1330*sim.Millisecond)
	var retrans uint64
	for _, c := range tb.VRIOClients {
		retrans += c.Driver.Counters.Get("retransmits")
	}
	pl := tb.Fault
	fmt.Printf("  %d writes completed in 30ms; %d duplicated, %d never completed (both must be 0)\n",
		l.Completed, l.Dup, l.Lost)
	fmt.Printf("  faults: %d frames lost, %d corrupted (all caught by the FCS check)\n",
		pl.Counters.Get("frames_dropped"), pl.Counters.Get("frames_corrupted"))
	fmt.Printf("  wire ledger: %d offered = %d delivered + %d injected + %d corrupt-FCS drops\n",
		pl.WireOffered(), pl.WireDelivered(),
		pl.WireDrops(link.DropInjected), pl.WireDrops(link.DropCorruptFCS))
	fmt.Printf("  recovery: %d retransmissions, 0 guest-visible errors\n\n", retrans)
}

// demoFlapMidMigration: the guest's channel VF flaps every ~10ms while the
// guest live-migrates to another VMhost. Carrier loss kills frames at the
// PHY in both directions; retransmission rides the writes across both the
// flaps and the 60ms migration blackout, exactly once.
func demoFlapMidMigration() {
	fmt.Println("== VF carrier flaps mid-migration: vm0 flaps ~every 10ms for 1ms, migrates at t=20ms ==")
	prof := &fault.Profile{Ports: []fault.PortFault{{
		VM: 0, FlapEvery: 10 * sim.Millisecond, FlapFor: sim.Millisecond,
	}}}
	tb := cluster.Build(cluster.Spec{
		Model: vrio.ModelVRIO, VMHosts: 2, VMsPerHost: 1, WithBlock: true,
		Seed: 32, Fault: prof, FaultSeed: 7,
	})
	ws := writeLoads(tb, 1, 4)
	migrated := sim.Time(0)
	tb.Eng.At(20*sim.Millisecond, func() {
		fmt.Printf("  t=%-8v migration starts (%.0fms blackout)\n",
			tb.Eng.Now(), float64(tb.P.MigrationDowntime)/float64(sim.Millisecond))
		tb.MigrateVM(0, 1, func() { migrated = tb.Eng.Now() })
	})
	// Short drain: with no wire loss, a write caught by the last flap
	// recovers within a few doubled timeouts.
	l := drain(tb, ws, 120*sim.Millisecond, 320*sim.Millisecond)
	fmt.Printf("  t=%-8v migration complete; guest resumed on VMhost 1\n", migrated)
	fmt.Printf("  %d carrier flaps injected; %d retransmissions carried the writes through\n",
		tb.Fault.Counters.Get("flaps"), tb.VRIOClients[0].Driver.Counters.Get("retransmits"))
	fmt.Printf("  %d writes completed; %d duplicated, %d never completed, %d errors (all must be 0)\n\n",
		l.Completed, l.Dup, l.Lost, l.Errs)
}

// demoStallRehome: IOhost 1's sidecore workers freeze for 5ms at a time —
// no crash, just a pause — but 5ms of silence is ten heartbeat deadlines,
// so the controller declares it dead and re-homes its guests onto IOhost 0.
// Soft failures and crashes are deliberately indistinguishable.
func demoStallRehome() {
	fmt.Println("== IOhost worker stall trips the heartbeat detector: 5ms stalls vs a 1.5ms deadline ==")
	prof := &fault.Profile{Workers: []fault.WorkerFault{{
		IOhost: 1, StallEvery: 15 * sim.Millisecond, StallFor: 5 * sim.Millisecond,
	}}}
	tb := cluster.Build(cluster.Spec{
		Model: vrio.ModelVRIO, VMHosts: 2, VMsPerHost: 1, WithBlock: true,
		NumIOhosts: 2, Placement: rack.Placement(&rack.RoundRobin{}, 2),
		Seed: 33, Fault: prof, FaultSeed: 7,
	})
	cfg := rack.Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3}
	c := rack.New(tb, cfg)
	c.Start()
	ws := writeLoads(tb, len(tb.Guests), 4)
	l := drain(tb, ws, 60*sim.Millisecond, 260*sim.Millisecond)

	for _, ev := range c.Events {
		switch ev.Kind {
		case rack.EventDetect:
			fmt.Printf("  t=%-8v IOhost %d declared dead (stalled, not crashed — the detector can't tell)\n",
				ev.T, ev.IOhost)
		case rack.EventRehome:
			fmt.Printf("  t=%-8v re-homed vm%d onto IOhost %d\n", ev.T, ev.VM, ev.Dst)
		}
	}
	fmt.Printf("  %d stalls injected; %d writes completed; %d duplicated, %d never completed (must be 0)\n",
		tb.Fault.Counters.Get("stalls"), l.Completed, l.Dup, l.Lost)
	fmt.Println()
	fmt.Println("Same seed, same faults, same bytes: re-run this demo and diff the output.")
}
