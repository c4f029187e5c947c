// Rack-scale control plane (§4.6, Figure 16b at rack scope): a controller
// over several IOhosts that (a) heals a maximally imbalanced placement by
// migrating hot devices, steered by the per-IOhost busy-time gauges, and
// (b) detects a crashed IOhost by missed heartbeats and re-homes its
// guests onto the survivors — no manual failover call anywhere.
//
//	go run ./examples/rack
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
	demoRebalance()
	demoFailureDetection()
}

// demoRebalance places every guest on IOhost 0 of three and lets the
// rebalancer spread them, watching the busy-time gauges converge.
func demoRebalance() {
	fmt.Println("== metrics-driven rebalancing: all guests start on IOhost 0 of 3 ==")
	tb := cluster.Build(cluster.Spec{
		Model: vrio.ModelVRIO, VMHosts: 2, VMsPerHost: 3,
		NumIOhosts: 3, Placement: rack.Placement(rack.Static(0), 3),
		StationPerVM: true, Seed: 21,
	})
	c := rack.New(tb, rack.Config{RebalanceInterval: 5 * sim.Millisecond})
	c.Start()
	rs := startRR(tb)

	fmt.Println("  t[ms]   busy[ms/IOhost]          placement")
	for ms := 20; ms <= 100; ms += 20 {
		ms := ms
		tb.Eng.At(sim.Time(ms)*sim.Millisecond, func() {
			busy := ""
			for _, h := range tb.IOHyps {
				busy += fmt.Sprintf(" %6.2f", float64(h.BusyTime())/float64(sim.Millisecond))
			}
			counts := make([]int, len(tb.IOHyps))
			for _, io := range tb.ClientIOhost {
				counts[io]++
			}
			fmt.Printf("  %5d  %s   %v\n", ms, busy, counts)
		})
	}
	tb.Eng.RunUntil(100 * sim.Millisecond)

	fmt.Printf("  %d transactions; %d rebalance moves:\n", workload.Summarize(rs, 0).Ops, c.Counters.Get("rebalances"))
	for _, ev := range c.Events {
		fmt.Printf("    t=%-8v %s vm%d: IOhost %d -> %d\n", ev.T, ev.Kind, ev.VM, ev.IOhost, ev.Dst)
	}
	fmt.Println()
}

// demoFailureDetection spreads guests round-robin over two IOhosts, then
// crashes one mid-run; the heartbeat detector notices within the miss
// window and re-homes the stranded guests automatically.
func demoFailureDetection() {
	fmt.Println("== heartbeat failure detection: IOhost 2 of 2 crashes at t=40ms ==")
	tb := cluster.Build(cluster.Spec{
		Model: vrio.ModelVRIO, VMHosts: 2, VMsPerHost: 2, WithBlock: true,
		NumIOhosts: 2, Placement: rack.Placement(&rack.RoundRobin{}, 2),
		StationPerVM: true, Seed: 22,
	})
	cfg := rack.Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3}
	c := rack.New(tb, cfg)
	c.Start()
	rs := startRR(tb)
	ops := func() uint64 { return workload.Summarize(rs, 0).Ops }

	var atCrash, failT sim.Time = 0, 40 * sim.Millisecond
	var opsAtCrash uint64
	tb.Eng.At(failT, func() {
		atCrash = tb.Eng.Now()
		opsAtCrash = ops()
		fmt.Printf("  t=%-8v %5d transactions; IOhost 1 fails (heartbeats every %v, %d misses => dead)\n",
			atCrash, opsAtCrash, cfg.HeartbeatInterval, cfg.MissThreshold)
		tb.IOHyps[1].Fail()
	})
	tb.Eng.RunUntil(120 * sim.Millisecond)

	for _, ev := range c.Events {
		switch ev.Kind {
		case rack.EventDetect:
			fmt.Printf("  t=%-8v detected IOhost %d dead (%v after the crash)\n",
				ev.T, ev.IOhost, ev.T-failT)
		case rack.EventRehome:
			fmt.Printf("  t=%-8v re-homed vm%d onto IOhost %d\n", ev.T, ev.VM, ev.Dst)
		}
	}
	fmt.Printf("  t=%-8v %5d transactions (%d served after the crash); survivors alive: %d/%d\n",
		tb.Eng.Now(), ops(), ops()-opsAtCrash, c.AliveIOhosts(), len(tb.IOHyps))
	fmt.Println()
	fmt.Println("Paper §4.6 sketches failover onto a fallback IOhost; internal/rack")
	fmt.Println("turns it into a control plane: bounded-window detection, automatic")
	fmt.Println("re-homing, and gauge-driven rebalancing across the whole rack.")
}

// startRR drives netperf RR on every guest, counting transactions from now.
func startRR(tb *cluster.Testbed) []*workload.Results {
	rs := tb.StartEach(tb.StartRR)
	for _, r := range rs {
		r.StartMeasuring()
	}
	return rs
}
