package experiments

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// fabricWorkers is the worker count of a sharded fabric run: one per CPU.
func fabricWorkers() int { return runtime.NumCPU() }

// fabricScalingSpec is the study's fabric shape: quick mode shrinks the
// rack count and population the same way durations() shrinks time.
func fabricScalingSpec(quick bool, racks int, oversub float64) cluster.FabricSpec {
	vmhosts := 8 // 16 racks x 8 = 128 VMhosts at full size
	if quick {
		vmhosts = 1
	}
	return cluster.FabricSpec{
		Rack: cluster.Spec{
			Model: core.ModelVRIO, VMHosts: vmhosts, VMsPerHost: 2,
			StationPerVM: true, Seed: 1601,
		},
		NumRacks:         racks,
		Oversubscription: oversub,
	}
}

// fabricFingerprint captures everything an experiment can observe from a
// fabric run. Two runs of the same topology+seed must produce identical
// fingerprints regardless of worker count; the equivalence cell enforces it.
func fabricFingerprint(f *cluster.Fabric, rs []*workload.Results) string {
	var b strings.Builder
	for i, r := range rs {
		fmt.Fprintf(&b, "rr%d %d %d %d|", i, r.Ops, r.Errors, r.Latency.Percentile(99))
	}
	for r, tb := range f.Racks {
		fmt.Fprintf(&b, "rack%d %d %d %d %d|", r, tb.Eng.Executed(), tb.Switch.Forwarded,
			tb.Switch.Flooded, tb.Switch.Drops.Total())
	}
	for s, sw := range f.Spines {
		fmt.Fprintf(&b, "spine%d %d %d|", s, sw.Forwarded, sw.Drops.Total())
	}
	fmt.Fprintf(&b, "w%d", f.Group.Windows)
	return b.String()
}

// fabricRacks is the scale cell's rack count and oversubscription: 16 racks
// (4 in quick mode) at 4:1.
func fabricRacks(quick bool) (int, float64) {
	if quick {
		return 4, 4
	}
	return 16, 4
}

// fabricCell runs the cross-rack RR workload (every guest driven from a
// station one rack over, so all traffic crosses the spine tier) on the
// fabric of spec with the given worker count and measures it. Only
// sim-time observables appear here: wall-clock speedups are
// machine-dependent and are measured by vriobench, never in a Result row.
func fabricCell(spec cluster.FabricSpec, warm, dur sim.Time, workers int) (Metrics, string) {
	f, err := cluster.BuildFabric(spec)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	perRack := f.StartEach(f.StartRR)
	f.RunMeasured(warm, dur, workers, perRack)
	rs := slices.Concat(perRack...)
	s := workload.Summarize(rs, dur)
	m := Metrics{
		"racks": float64(spec.NumRacks), "VMs": float64(len(rs)), "oversub": spec.Oversubscription,
		"kops/s": s.OpsPerSec / 1000, "p50": s.P50Micros, "p99": s.P99Micros,
		"windows": float64(f.Group.Windows), "xshard": 0, "no_route": 0, "ecmp": 0, "identical": math.NaN(),
	}
	// no_route sums the no-route drop gauges of every ToR and spine switch,
	// the fabric's misrouting health signal; ecmp is the worst rack's uplink
	// imbalance, max-uplink frames over the even share (1.0 is even).
	for _, tb := range f.Racks {
		m["no_route"] += tb.Metrics.Value("switch", "drops_no_route")
		m["ecmp"] = math.Max(m["ecmp"], tb.Metrics.Value("fabric", "ecmp_imbalance"))
	}
	for s := range f.Spines {
		m["no_route"] += f.SpineMetrics.Value(fmt.Sprintf("spine%d", s), "drops_no_route")
	}
	for _, s := range f.Group.Shards() {
		m["xshard"] += float64(s.Received) // cross-shard messages received
	}
	return m, fabricFingerprint(f, rs)
}

// fabricScaling runs a serial-vs-sharded equivalence cell, an
// oversubscription sweep, and the 16-rack scale cell, all with every
// transaction crossing the spine fabric.
var fabricScaling = &Grid{
	ID:    "fabricscaling",
	Title: "Spine-leaf fabric: sharded simulation equivalence, oversubscription, and rack scale-out",
	Axes:  []Axis{axis("cell", "serial vs sharded", "oversub 1:1", "oversub 4:1", "oversub 8:1", "scale")},
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
		switch c := p["cell"]; c {
		case "serial vs sharded":
			// The same 4-rack fabric run serially and with every available
			// worker must be byte-identical.
			m, serial := fabricCell(fabricScalingSpec(quick, 4, 4), warm, dur, 1)
			_, sharded := fabricCell(fabricScalingSpec(quick, 4, 4), warm, dur, fabricWorkers())
			m["identical"] = 0
			if serial == sharded {
				m["identical"] = 1
			}
			return one(m)
		case "scale":
			racks, oversub := fabricRacks(quick)
			m, _ := fabricCell(fabricScalingSpec(quick, racks, oversub), warm, dur, fabricWorkers())
			return one(m)
		default:
			// The oversubscription sweep pins the rack population to one
			// VMhost regardless of quick/full (only the duration grows), so
			// the derived per-uplink capacity stays small enough for the
			// latency-bound RR load to queue against: with a full rack the
			// uplink capacity scales with the host count while closed-loop RR
			// load does not, and every ratio would measure an idle uplink.
			var ov float64
			fmt.Sscanf(c, "oversub %g:1", &ov)
			spec := fabricScalingSpec(quick, 4, ov)
			spec.Rack.VMHosts = 1
			m, _ := fabricCell(spec, warm, dur, fabricWorkers())
			return one(m)
		}
	},
	Cols: []Col{
		{"cell", func(r Row) string {
			if r.Axis("cell") == "scale" {
				return fmt.Sprintf("scale, %s racks", d(r.Get("racks")))
			}
			return r.Axis("cell")
		}},
		num("racks", "racks", d), num("VMs", "VMs", d),
		num("oversub", "oversub", func(v float64) string { return fmt.Sprintf("%g:1", v) }),
		num("kops/s", "kops/s", f1), num("p50 [µs]", "p50", f1), num("p99 [µs]", "p99", f1),
		num("xshard msgs", "xshard", d), num("windows", "windows", d), num("no_route", "no_route", d),
		num("ecmp", "ecmp", f2), num("identical", "identical", orDash(func(v float64) string {
			if v == 1 {
				return "yes"
			}
			return "DIVERGED"
		}))},
	Notes: lines(
		"Every transaction crosses the spine tier twice (request and reply); station r drives the guests of rack r+1.",
		"The equivalence cell runs the same fabric serially (workers=1) and sharded (one worker per core): 'identical' compares ops, latency histograms, per-shard event counts, and switch counters byte for byte.",
		"Oversubscription divides the per-uplink bandwidth (downlink capacity / ratio x uplinks); the sweep pins each rack to one VMhost so the uplink stays the contended resource — latency rises and throughput falls as the ratio grows.",
		"Wall-clock shard speedup is machine-dependent and reported by vriobench (sim.shard_speedup), not here — these rows are byte-reproducible per seed.",
		"no_route sums the DropNoRoute gauges over every ToR and spine switch (0 in a healthy fabric); ecmp is the worst rack's uplink imbalance — max uplink frames over the even share, 1.0 = perfectly spread.",
	),
}

// FabricBenchRun builds the 16-rack scale fabric and runs the cross-rack RR
// workload with the given worker count, returning total simulated events
// executed. The caller times it — this is the body of vriobench's
// sim.shard_speedup, kept here so it measures exactly the workload the
// fabricscaling experiment reports.
func FabricBenchRun(quick bool, workers int) uint64 {
	warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
	racks, oversub := fabricRacks(false)
	// Always the full per-rack population: quick shortens the run, not the
	// racks — a near-empty rack has so little work per 4µs sync window that
	// the sweep would measure barrier overhead instead of the simulator.
	f, err := cluster.BuildFabric(fabricScalingSpec(false, racks, oversub))
	if err != nil {
		panic(err)
	}
	defer f.Close()
	f.RunMeasured(warm, dur, workers, f.StartEach(f.StartRR))
	return f.TotalExecuted()
}
