package experiments

import (
	"fmt"
	"math"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/fault"
	"vrio/internal/rack"
	"vrio/internal/sim"
	"vrio/internal/stats"
	"vrio/internal/workload"
)

// faultLossSweep is the channel frame-loss sweep (§4.5's validation regime:
// "artificially dropping I/O requests"): 0 to 5% loss, each point also
// corrupting a quarter of that rate in flight.
var faultLossSweep = []float64{0, 0.005, 0.01, 0.02, 0.05}

// faultSeed is the fault-draw seed of every faulttolerance cell.
const faultSeed = 901

// ftDrain runs past the worst-case §4.5 give-up time: with the default
// 10ms initial timeout doubling over 6 retransmits, a request issued just
// before the stop fires its device error ~1.27s later.
const ftDrain = 1300 * sim.Millisecond

// volLoads starts a closed loop of 4 KiB quorum writes, eight deep, on
// every volume of tb, each request aimed at a whole 4 KiB block of the
// volume: (seq·17 mod blocks)·8. lat, when set, records their latencies.
func volLoads(tb *cluster.Testbed, lat *stats.Histogram) []*workload.MQBlock {
	var loads []*workload.MQBlock
	for _, vol := range tb.Volumes {
		m := workload.NewMQBlock(tb.Eng, func(_ uint8, sector uint64, data []byte, done func(error)) {
			vol.Write(sector, data, done)
		}, 1, 8, 4096)
		blocks := vol.Spec().CapacitySectors / 8
		m.Place = func(_, seq int) uint64 { return uint64(seq) * 17 % blocks * 8 }
		m.Latency = lat
		m.Start()
		loads = append(loads, m)
	}
	return loads
}

// halt stops every load and returns how many of their requests have
// completed.
func halt(loads []*workload.MQBlock) uint64 {
	var n uint64
	for _, l := range loads {
		l.Stop()
		n += l.Ledger().Completed
	}
	return n
}

// addLedgers adds the loads' post-drain ledgers to m: issued, completed,
// dup, never-completed and dev errors.
func addLedgers(m Metrics, loads []*workload.MQBlock) {
	for _, l := range loads {
		led := l.Ledger()
		m["issued"] += float64(led.Issued)
		m["completed"] += float64(led.Completed)
		m["dup"] += float64(led.Dup)
		m["never-completed"] += float64(led.Lost)
		m["dev errors"] += float64(led.Errs)
	}
}

// ftCase is one fault-tolerance cell's regime: the testbed (faults
// included) and what happens during the run. Every guest runs a closed
// loop of block writes, qd deep, on each of its queues; when the spec has
// volumes, every volume runs a closed loop of quorum writes instead.
type ftCase struct {
	spec   cluster.Spec
	qd     int
	crash  bool // a rack controller watches, and IOhost 1 dies at the midpoint
	stalls bool // every sidecore freezes twice early in the run
	sweep  bool // a row of the loss sweep, compared with the 0% row
	drain  sim.Time
}

// sweepCase is the loss sweep's regime: block writes from four guests on
// one VMhost, faults from prof (nil injects none).
func sweepCase(prof *fault.Profile) ftCase {
	return ftCase{spec: cluster.Spec{Model: core.ModelVRIO, VMHosts: 1, VMsPerHost: 4,
		WithBlock: true, Seed: 901, Fault: prof}, qd: 8, sweep: true, drain: ftDrain}
}

// ftCaseFor builds a faulttolerance row's regime, fresh per cell: a
// placement policy carries state.
func ftCaseFor(row string) ftCase {
	// Two IOhosts round-robin over a 1%-lossy fabric, for the crash rows.
	crashSpec := cluster.Spec{Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 2,
		NumIOhosts: 2, Placement: rack.Placement(&rack.RoundRobin{}, 2),
		WithBlock: true, Seed: 902, Fault: fault.Lossy(0.01)}
	switch row {
	case "1% + IOhost crash":
		return ftCase{spec: crashSpec, qd: 8, crash: true, drain: ftDrain}
	case "2% QD4xNQ2 + stalls":
		c := sweepCase(fault.Lossy(0.02))
		c.spec.BlkQueues, c.spec.IOhostSidecores, c.qd, c.stalls, c.sweep = 2, 2, 4, true, false
		return c
	case "1% QD4xNQ2 + crash":
		crashSpec.BlkQueues, crashSpec.IOhostSidecores = 2, 2
		return ftCase{spec: crashSpec, qd: 4, crash: true, drain: ftDrain}
	case "1% vol R=2 + crash":
		// The vol cell drains longer than the others: a gap nack carried by
		// one of the final writes (loss can reorder versions via
		// retransmission) queues a heal, and that heal is a further read +
		// write round trip, each with its own worst-case retransmission
		// budget.
		return ftCase{spec: cluster.Spec{Model: core.ModelVRIO, VMsPerHost: 2, NumIOhosts: 3,
			VolReplicas: 2, VolQuorum: 2, VolQueues: 2, Seed: 903, Fault: fault.Lossy(0.01)},
			crash: true, drain: 4 * ftDrain}
	}
	for _, rate := range faultLossSweep {
		if lossLabel(rate) == row {
			return sweepCase(fault.Lossy(rate))
		}
	}
	panic("faulttolerance: unknown row " + row)
}

func lossLabel(rate float64) string { return fmt.Sprintf("%.1f%%", rate*100) }

// runFault drives one regime's closed-loop writes for the measure window,
// then drains past the full retransmission budget, so by the time the
// ledger is read every request has resolved: completed once, or errored
// once after MaxRetransmits. "Exactly once" is then literal: dup and
// never-completed must both be zero. Throughput is measured over [0, dur).
func runFault(quick bool, c ftCase) Metrics {
	_, dur := durations(quick, 0, 50*sim.Millisecond)
	c.spec.FaultSeed = faultSeed
	tb := cluster.Build(c.spec)
	var ctrl *rack.Controller
	if c.crash {
		ctrl = rack.New(tb, rack.Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3})
		ctrl.Start()
	}
	var loads []*workload.MQBlock
	if c.spec.VolReplicas > 0 {
		loads = volLoads(tb, nil)
	} else {
		for _, g := range tb.Guests {
			m := workload.NewMQBlock(tb.Eng, g.WriteBlockQ, max(c.spec.BlkQueues, 1), c.qd, 4096)
			m.Start()
			loads = append(loads, m)
		}
	}
	if c.stalls {
		// Early enough that the closed loops are still flowing (under heavy
		// loss they park on retransmit timers fast): queued multi-queue work
		// must wait behind the stall, and the per-queue tables must still
		// balance afterwards.
		tb.Eng.At(dur/8, func() { tb.IOHyp.StallWorkers(2 * sim.Millisecond) })
		tb.Eng.At(dur/3, func() { tb.IOHyp.StallWorkers(2 * sim.Millisecond) })
	}
	failT := dur / 2
	if c.crash {
		tb.Eng.At(failT, func() { tb.IOHyps[1].Fail() })
	}
	var doneAtStop uint64
	tb.Eng.At(dur, func() { doneAtStop = halt(loads) })
	tb.Eng.RunUntil(dur + c.drain)

	m := Metrics{"ops/s": float64(doneAtStop) / dur.Seconds(), "detect": -1, "healthy": 1,
		"frames lost": float64(tb.Fault.Counters.Get("frames_dropped")),
		"corrupt":     float64(tb.Fault.Counters.Get("frames_corrupted")),
		"stalls":      float64(tb.IOHyp.Counters.Get("stalls"))}
	if c.sweep {
		m["sweep ops/s"] = m["ops/s"]
	}
	addLedgers(m, loads)
	for _, cl := range tb.VRIOClients {
		m["retrans"] += float64(cl.Driver.Counters.Get("retransmits"))
		// After the drain no request may still sit in a driver: the ledger's
		// never-completed column must mean lost, not late.
		m["never-completed"] += float64(cl.Driver.InFlightBlk())
	}
	for _, h := range tb.IOHyps {
		// Per-queue in-flight entries left behind would mean a stall or
		// crash leaked a request into, or out of, a queue table.
		m["tables left"] += float64(h.BlkInFlight())
	}
	for _, vol := range tb.Volumes {
		m["rebuilt"] += float64(vol.Counters.Get("rebuild_extents"))
		m["gap nacks"] += float64(vol.Counters.Get("gap_nacks"))
		m["heals"] += float64(vol.Counters.Get("replica_heals"))
		m["quorum losses"] += float64(vol.Counters.Get("quorum_losses"))
		if vol.Rebuilding() || !vol.FullyReplicated() {
			m["healthy"] = 0
		}
	}
	if ctrl != nil {
		m["rehomes"] = float64(ctrl.Counters.Get("rehomes"))
		for _, ev := range ctrl.Events {
			if ev.Kind == rack.EventDetect {
				m["detect"] = float64(ev.T-failT) / 1000
				break
			}
		}
	}
	if c.spec.VolReplicas > 0 {
		m["retrans"] = math.NaN() // the volume row reports no driver retransmissions
	}
	return m
}

// faultTolerance sweeps channel frame loss from 0 to 5% under a block write
// load and shows §4.5's claim: throughput degrades gracefully while every
// request completes exactly once. The rows after the sweep crash an IOhost
// over an already-lossy fabric, repeat the claims at QD=4/NQ=2 under loss
// with injected worker stalls or a crash, and run quorum writes on a
// distributed volume under loss, a replica crash and rebuild (DESIGN.md
// §16).
var faultTolerance = &Grid{
	ID:    "faulttolerance",
	Title: "Fault tolerance: block throughput and exactly-once completion vs channel loss (§4.5, §4.6)",
	Axes: []Axis{{"loss", func(bool) []string {
		var rows []string
		for _, rate := range faultLossSweep {
			rows = append(rows, lossLabel(rate))
		}
		return append(rows, "1% + IOhost crash", "2% QD4xNQ2 + stalls", "1% QD4xNQ2 + crash", "1% vol R=2 + crash")
	}}},
	Cell: func(quick bool, p Point) []Line { return one(runFault(quick, ftCaseFor(p["loss"]))) },
	Cols: []Col{axisCol("loss"), num("kops/s", "ops/s", func(v float64) string { return f1(v / 1000) }),
		vsFirst("vs 0%", "sweep ops/s", "0%"),
		num("retrans", "retrans", orDash(d)), num("frames lost", "frames lost", d), num("corrupt", "corrupt", d),
		num("dup", "dup", d), num("never-completed", "never-completed", d), num("dev errors", "dev errors", d)},
	Notes: func(t *Table) []string {
		vol := func(m string) string { return d(t.Get(Point{"loss": "1% vol R=2 + crash"}, m)) }
		crash := func(m string) float64 { return t.Get(Point{"loss": "1% + IOhost crash"}, m) }
		health := "restored full replication"
		if t.Get(Point{"loss": "1% vol R=2 + crash"}, "healthy") != 1 {
			health = "LEFT THE VOLUME DEGRADED"
		}
		return []string{
			fmt.Sprintf("volume cell runs R=2/W=2 quorum writes across 3 IOhosts; the crash cost %s extent replicas and the rebuild engine %s over the same lossy fabric. Its dev errors (%s, all clean quorum-loss errors) are writes the version fence refused whole — superseded by a newer concurrent version, or aimed at a replica that provably missed an earlier one (%s gap nacks, %s healed by full-extent copy) — so dup and never-completed stay 0.",
				vol("rebuilt"), health, vol("dev errors"), vol("gap nacks"), vol("heals")),
			"dup and never-completed must be 0 at every loss rate: §4.5 retransmission with stale filtering gives exactly-once completion, not at-least-once.",
			fmt.Sprintf("crash cell: heartbeats detected the dead IOhost in %.0fµs over a 1%%-lossy fabric and re-homed %s guests; stranded requests completed on the survivor via retransmission.",
				crash("detect"), d(crash("rehomes"))),
			fmt.Sprintf("multi-queue cells run QD=4/NQ=2 per guest; per-queue in-flight tables drained to %s/%s entries (stall/crash cells) — both must be 0.",
				d(t.Get(Point{"loss": "2% QD4xNQ2 + stalls"}, "tables left")), d(t.Get(Point{"loss": "1% QD4xNQ2 + crash"}, "tables left"))),
		}
	},
}
