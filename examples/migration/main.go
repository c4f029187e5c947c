// Live migration and IOhost failover (§4.6 extensions): move a running
// vRIO guest between VMhosts, then crash IOhost 0 of a two-IOhost rack and
// watch the rack controller re-home every guest onto the idle IOhost 1 —
// both with traffic flowing.
//
//	go run ./examples/migration
package main

import (
	"fmt"

	"vrio"
	"vrio/internal/cluster"
	"vrio/internal/rack"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

func main() {
	demoMigration()
	demoFailover()
}

func demoMigration() {
	fmt.Println("== live migration: VMhost 0 -> VMhost 1, traffic running ==")
	tb := cluster.Build(cluster.Spec{
		Model: vrio.ModelVRIO, VMHosts: 2, VMsPerHost: 1, WithBlock: true, Seed: 11,
	})
	rr := tb.StartRR(0)
	rr.StartMeasuring()

	snap := func() uint64 { return rr.Ops }
	var before uint64
	tb.Eng.At(40*sim.Millisecond, func() {
		before = snap()
		fmt.Printf("  t=40ms   %5d transactions done; migrating (blackout %v)\n",
			before, tb.P.MigrationDowntime)
		tb.MigrateVM(0, 1, func() {
			fmt.Printf("  t=%v  resumed on VMhost 1 (same F address, same remote disk)\n",
				tb.Eng.Now())
		})
	})
	tb.Eng.RunUntil(200 * sim.Millisecond)
	fmt.Printf("  t=200ms  %5d transactions done (%d after the move)\n",
		snap(), snap()-before)
	fmt.Println()
}

func demoFailover() {
	fmt.Println("== IOhost failure: IOhost 1 is the idle fallback of a two-IOhost rack ==")
	tb := cluster.Build(cluster.Spec{
		Model: vrio.ModelVRIO, VMHosts: 2, VMsPerHost: 2,
		WithBlock: true, NumIOhosts: 2, Seed: 12,
	})
	ctrl := rack.New(tb, rack.Config{})
	ctrl.Start()
	rs := tb.StartEach(tb.StartRR)
	for _, r := range rs {
		r.StartMeasuring()
	}
	total := func() uint64 { return workload.Summarize(rs, 0).Ops }
	var atCrash uint64
	tb.Eng.At(40*sim.Millisecond, func() {
		atCrash = total()
		fmt.Printf("  t=40ms   %5d transactions; IOhost 0 crashes\n", atCrash)
		tb.IOHyp.Fail()
	})
	tb.Eng.RunUntil(200 * sim.Millisecond)
	for _, ev := range ctrl.Events {
		if ev.Kind == rack.EventDetect {
			fmt.Printf("  t=%v  heartbeat declares IOhost %d dead; %d guests re-homed\n",
				ev.T, ev.IOhost, ctrl.Counters.Get("rehomes"))
		}
	}
	fmt.Printf("  t=200ms  %5d transactions (%d served after the crash)\n",
		total(), total()-atCrash)
	fmt.Printf("  IOhost 1 processed %d messages; gratuitous announcements: %d\n",
		tb.IOHyps[1].Counters.Get("msgs"),
		tb.IOHyps[1].Counters.Get("announcements"))
	fmt.Println()
	fmt.Println("Paper §4.6 sketches both mechanisms (and the cabling cost of the")
	fmt.Println("fallback); this repository implements and measures them.")
}
