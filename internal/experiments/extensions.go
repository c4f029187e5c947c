package experiments

import (
	"fmt"
	"math"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/params"
	"vrio/internal/rack"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// migration exercises the §4.6 live-migration design that the paper
// describes but did not implement ("we did not implement the dynamic
// switch"): a vRIO guest moves between VMhosts sharing the IOhost while
// Netperf RR runs against its unchanged F address and a block write is in
// flight. One indivisible timeline, so one cell with a Line per phase.
var migration = &Grid{
	ID:    "migration",
	Title: "Live migration of a vRIO guest between VMhosts (§4.6 extension)",
	Cell: func(bool, Point) []Line {
		tb := cluster.Build(cluster.Spec{
			Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 1,
			WithBlock: true, Seed: 401,
		})
		g := tb.Guests[0]
		rr := tb.StartRR(0)
		rr.StartMeasuring()

		// Each phase's transactions and their summed latency.
		type snap struct{ ops, sum float64 }
		take := func() snap {
			return snap{float64(rr.Ops), rr.Latency.Mean() * float64(rr.Ops)}
		}
		const phase = 40 * sim.Millisecond
		var before snap
		blkOK := 0.0
		t1 := phase
		t2 := t1 + tb.P.MigrationDowntime + 40*sim.Millisecond // + the RR loss-timer to fully restart
		end := t2 + phase
		tb.Eng.At(t1, func() {
			before = take()
			// A block write racing the blackout: §4.5 must carry it across.
			g.WriteBlock(10, make([]byte, 4096), func(err error) {
				if err == nil {
					blkOK = 1
				}
			})
			tb.MigrateVM(0, 1, nil)
		})
		tb.Eng.RunUntil(t2)
		resumed := take()
		tb.Eng.RunUntil(end)
		final := take()
		// The phase between two snapshots, over a window of simulated time.
		line := func(label string, s0, s1 snap, window sim.Time) Line {
			n := s1.ops - s0.ops
			return Line{label, Metrics{"ops": n, "rate": n / window.Seconds(), "mean": (s1.sum - s0.sum) / n / 1000,
				"downtime": float64(tb.P.MigrationDowntime), "block ok": blkOK,
				"retransmits": float64(tb.VRIOClients[0].Driver.Counters.Get("retransmits"))}}
		}
		return []Line{
			line("before migration", snap{}, before, t1),
			line("blackout window", before, resumed, t2-t1),
			line("after migration", resumed, final, end-t2),
		}
	},
	Cols: []Col{labelCol("phase"),
		{"RR transactions", func(r Row) string { return fmt.Sprintf("%s (%.0f/s)", d(r.Get("ops")), r.Get("rate")) }},
		num("mean RTT [µs]", "mean", orDash(f1))},
	Notes: func(t *Table) []string {
		r, ok := t.Rows()[0], "no"
		if r.Get("block ok") == 1 {
			ok = "yes"
		}
		return []string{
			fmt.Sprintf("blackout %v; in-flight block write survived via §4.5 retransmission: %s; retransmits=%s; F address unchanged",
				sim.Time(r.Get("downtime")), ok, d(r.Get("retransmits"))),
			"the paper designed this switch (§4.6) but left it unimplemented; here it is exercised end to end",
		}
	},
}

// failover exercises §4.6's fault-tolerance design as a rack: two IOhosts
// cabled to every VMhost, default placement putting every guest on IOhost 0,
// so IOhost 1 is the idle fallback. IOhost 0 crashes mid-run; the rack
// controller's heartbeat detects it and re-homes every guest onto IOhost 1.
// Net traffic resumes once the survivor speaks for the F addresses; block
// requests ride across on §4.5 retransmission (the IOhosts share the
// distributed block backends).
var failover = &Grid{
	ID:    "failover",
	Title: "IOhost failure with a fallback IOhost (§4.6 extension)",
	Cell: func(bool, Point) []Line {
		o := runFailover()
		phase := func(label string, ops uint64, host float64) Line {
			return Line{label, Metrics{"RR transactions": float64(ops), "IOhost": host,
				"crash": float64(o.crash), "detect": float64(o.detect),
				"survivor": float64(o.survivor), "survivor msgs": float64(o.survivorMsgs)}}
		}
		return []Line{
			phase("before failure", o.before, 0),
			phase("failure+recovery", o.recovery, math.NaN()),
			phase("after failover", o.after, float64(o.survivor)),
		}
	},
	Cols: []Col{labelCol("phase"), num("RR transactions", "RR transactions", d),
		num("served by", "IOhost", orDash(func(v float64) string { return "IOhost " + d(v) }))},
	Notes: func(t *Table) []string {
		r := t.Rows()[0]
		return []string{fmt.Sprintf(
			"IOhost 0 crashed at %v; heartbeat detection and re-homing at %v; IOhost %s, idle until then, served %s messages; paper §4.6: reachability via a fallback IOhost costs extra cables and ports (priced in Table 1's NIC rows)",
			sim.Time(r.Get("crash")), sim.Time(r.Get("detect")), d(r.Get("survivor")), d(r.Get("survivor msgs")))}
	},
}

// failoverOut is the failover timeline's measurements: RR transactions per
// phase, the crash and its detection (bound: the latest detection the
// heartbeat config allows), and the IOhost the guests ended on.
type failoverOut struct {
	before, recovery, after uint64
	crash, detect, bound    sim.Time
	survivor                int
	survivorMsgs            uint64
}

func runFailover() failoverOut {
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 2,
		WithBlock: true, NumIOhosts: 2, Seed: 421,
	})
	// The controller's defaults, spelled out so the detection bound below
	// can be derived from them.
	cfg := rack.Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3}
	ctrl := rack.New(tb, cfg)
	ctrl.Start()
	rs := tb.StartEach(tb.StartRR)
	for _, r := range rs {
		r.StartMeasuring()
	}
	ops := func() uint64 { return workload.Summarize(rs, 0).Ops }
	const phase = 40 * sim.Millisecond
	var atFailure uint64
	tb.Eng.At(phase, func() {
		atFailure = ops()
		tb.IOHyp.Fail()
	})
	tb.Eng.RunUntil(2*phase + 40*sim.Millisecond) // + the RR loss timer
	afterBlackout := ops()
	tb.Eng.RunUntil(3*phase + 40*sim.Millisecond)

	o := failoverOut{
		before: atFailure, recovery: afterBlackout - atFailure, after: ops() - afterBlackout,
		crash: phase,
		// MissThreshold missed probes, plus one interval of phase slack
		// between the crash and the next probe.
		bound:    phase + sim.Time(cfg.MissThreshold+1)*cfg.HeartbeatInterval,
		survivor: tb.ClientIOhost[0],
	}
	o.survivorMsgs = tb.IOHyps[o.survivor].Counters.Get("msgs")
	for _, ev := range ctrl.Events {
		if ev.Kind == rack.EventDetect {
			o.detect = ev.T
		}
	}
	return o
}

// energy quantifies §4.6's "Energy" paragraph: spinning sidecores burn
// full power even when idle; consolidating them (vRIO) and/or waiting with
// monitor/mwait reduces the burn, mwait at a small latency cost.
var energy = &Grid{
	ID:    "energy",
	Title: "Sidecore energy under the Webserver load (§4.6 extension; core-seconds at full power per second)",
	Axes:  []Axis{axis("model", "elvis", "vrio"), axis("wait", "spinning", "mwait")},
	Cell: func(quick bool, pt Point) []Line {
		warm, dur := durations(quick, 5*sim.Millisecond, 80*sim.Millisecond)
		p := params.Default()
		p.MwaitEnabled = pt["wait"] == "mwait"
		// Elvis has a sidecore per VMhost; vRIO consolidates one at the IOhost.
		s := cluster.Spec{Model: core.ModelVRIO, IOhostSidecores: 1, Params: &p, Seed: 411}
		if pt["model"] == "elvis" {
			s = cluster.Spec{Model: core.ModelElvis, SidecoresPerHost: 1, Params: &p, Seed: 411}
		}
		tb := webserverBed(s)
		mbps := tb.RunEach(warm, dur, func(i int) *workload.Results { return tb.StartWebserver(i, 420, 2) }).Gbps * 1e3
		pollW := p.PowerPoll
		if p.MwaitEnabled {
			pollW = p.PowerMwait
		}
		var units float64
		for _, sc := range tb.Sidecores {
			units += sc.Energy(p.PowerBusy, pollW, p.PowerIdle)
		}
		// Normalize to cores of continuous full-power burn.
		return one(Metrics{"sidecores": float64(len(tb.Sidecores)), "energy": units / tb.Eng.Now().Seconds(), "Mbps": mbps})
	},
	Cols: []Col{{"config", func(r Row) string { return r.Axis("model") + " " + r.Axis("wait") }},
		num("sidecores", "sidecores", d), num("energy [cores]", "energy", f2), num("Mbps", "Mbps", f1)},
	Notes: lines("the paper notes monitor/mwait as a latency-for-energy tradeoff outside its scope; consolidation (2 sidecores -> 1) already halves the spin burn, mwait cuts the rest"),
}
