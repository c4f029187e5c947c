package experiments

import (
	"math"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/rack"
	"vrio/internal/sim"
)

// rackCellCfg shapes one cell of the rack-scaling experiment.
type rackCellCfg struct {
	name      string
	numIO     int
	policy    func() rack.Policy
	rebalance bool
	crash     bool // kill the last IOhost at mid-run, detection via heartbeats only
}

// rackCells are the rack-scaling configurations by axis value.
var rackCells = map[string]rackCellCfg{
	"static":       {"static, no controller", 2, func() rack.Policy { return rack.Static(0) }, false, false},
	"rebalance":    {"static + rebalancer", 2, func() rack.Policy { return rack.Static(0) }, true, false},
	"round-robin":  {"round-robin placement", 2, func() rack.Policy { return &rack.RoundRobin{} }, false, false},
	"rebalance x4": {"static + rebalancer", 4, func() rack.Policy { return rack.Static(0) }, true, false},
	"crash":        {"round-robin + IOhost crash", 2, func() rack.Policy { return &rack.RoundRobin{} }, false, true},
}

// rackScaling is the Figure 16b-style rack-scaling study run through the
// internal/rack control plane: an all-on-one placement is maximally
// imbalanced across IOhosts, and the controller heals it by migrating hot
// devices; a crashed IOhost is detected by heartbeats and its devices
// re-home onto the survivors with no manual failover call.
var rackScaling = &Grid{
	ID:    "rackscaling",
	Title: "Rack scaling: placement, rebalancing, and failure recovery across IOhosts (cf. Fig. 16b, §4.6)",
	Axes:  []Axis{axis("config", "static", "rebalance", "round-robin", "rebalance x4", "crash")},
	Cell: func(quick bool, p Point) []Line {
		return one(runRackCell(quick, rackCells[p["config"]]))
	},
	Cols: []Col{
		{"configuration", func(r Row) string { return rackCells[r.Axis("config")].name }},
		num("IOhosts", "IOhosts", d), num("kops/s", "kops/s", f1),
		num("busy max/min W1", "W1", busyRatio), num("busy max/min W2", "W2", busyRatio),
		num("moves", "moves", d), num("rehomes", "rehomes", d), num("detect [µs]", "detect", orDash(f1))},
	Notes: lines(
		"All guests on one IOhost (static) leaves the others idle: busy max/min is huge in both windows without a controller.",
		"The rebalancer reads per-IOhost busy_ns gauges and migrates the hottest device with hysteresis: W2 narrows toward 1.",
		"The crash cell kills an IOhost mid-run; heartbeats detect it within the miss window and the rack controller re-homes its devices onto survivors.",
	),
}

// runRackCell builds one multi-IOhost testbed, runs RR on every guest, and
// measures per-IOhost busy-time imbalance over two half-windows.
func runRackCell(quick bool, cfg rackCellCfg) Metrics {
	warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 4,
		NumIOhosts: cfg.numIO, Placement: rack.Placement(cfg.policy(), cfg.numIO),
		StationPerVM: true, Seed: 811,
	})
	ctlCfg := rack.Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3}
	if cfg.rebalance {
		ctlCfg.RebalanceInterval = dur / 30
	}
	c := rack.New(tb, ctlCfg)
	c.Start()

	// Busy-time snapshots bounding the two measurement half-windows. The
	// last lands 1ns before RunMeasured stops the engine.
	snaps := make([][]float64, 3)
	for k, ts := range []sim.Time{warm, warm + dur/2, warm + dur - 1} {
		tb.Eng.At(ts, func() {
			s := make([]float64, cfg.numIO)
			for i := range tb.IOHyps {
				if c.Down(i) {
					s[i] = math.NaN() // dead: excluded from the ratio
					continue
				}
				s[i] = float64(tb.IOHyps[i].BusyTime())
			}
			snaps[k] = s
		})
	}
	var failT sim.Time
	if cfg.crash {
		failT = warm + dur/2
		tb.Eng.At(failT, func() { tb.IOHyps[cfg.numIO-1].Fail() })
	}
	s := tb.RunEach(warm, dur, tb.StartRR)

	m := Metrics{
		"IOhosts": float64(cfg.numIO),
		"kops/s":  s.OpsPerSec / 1000,
		"W1":      maxMinRatio(snaps[0], snaps[1]),
		"W2":      maxMinRatio(snaps[1], snaps[2]),
		"moves":   float64(c.Counters.Get("rebalances")),
		"rehomes": float64(c.Counters.Get("rehomes")),
		"detect":  math.NaN(),
	}
	for _, ev := range c.Events {
		if ev.Kind == rack.EventDetect {
			m["detect"] = float64(ev.T-failT) / 1000
			break
		}
	}
	return m
}

// maxMinRatio is the max/min per-IOhost busy-time delta between two
// snapshots, skipping IOhosts dead in either (NaN); +Inf when the least
// busy IOhost did no work.
func maxMinRatio(a, b []float64) float64 {
	min, max := math.Inf(1), 0.0
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			continue
		}
		d := b[i] - a[i]
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min <= 0 {
		return math.Inf(1)
	}
	return max / min
}

// busyRatio prints a max/min ratio; ">1000" stands in for an effectively
// idle IOhost in the denominator.
func busyRatio(v float64) string {
	if v > 1000 {
		return ">1000"
	}
	return f1(v)
}
