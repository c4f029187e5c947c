package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

func init() {
	register("fabricscaling", fabricScalingPlan)
}

// fabric options injected by cmd/vrio-experiments' -racks / -shards /
// -oversub flags (see SetFabricOptions). Zero values keep the defaults.
var (
	fabricRacksOverride   int
	fabricWorkersOverride int
	fabricOversubOverride float64
)

// SetFabricOptions wires the CLI fabric flags into the fabricscaling
// experiment: racks resizes the scale cell's fabric, shards caps the worker
// count used to execute it, and oversub replaces the scale cell's
// oversubscription ratio. Call before running; the options are read at
// plan-build time.
func SetFabricOptions(racks, shards int, oversub float64) {
	fabricRacksOverride = racks
	fabricWorkersOverride = shards
	fabricOversubOverride = oversub
}

func fabricWorkers() int {
	if fabricWorkersOverride > 0 {
		return fabricWorkersOverride
	}
	return runtime.NumCPU()
}

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

// fabricRRRun drives every guest from a station one rack over — all traffic
// crosses the spine tier — and runs the fabric to warm+dur with the given
// worker count.
func fabricRRRun(f *cluster.Fabric, warm, dur sim.Time, workers int) []*workload.RR {
	n := len(f.Racks)
	var rrs []*workload.RR
	perRack := make([][]cluster.Measurable, n)
	for r := 0; r < n; r++ {
		server := f.Racks[(r+1)%n]
		for g, guest := range server.Guests {
			workload.InstallRRServer(guest, server.P.NetperfRRProcessCost)
			rr := workload.NewRR(f.Racks[r].StationFor(g), guest.MAC(), 16)
			rr.Start()
			rrs = append(rrs, rr)
			perRack[r] = append(perRack[r], &rr.Results)
		}
	}
	f.RunMeasured(warm, dur, workers, perRack)
	return rrs
}

// fabricFingerprint captures everything an experiment can observe from a
// fabric run. Two runs of the same topology+seed must produce identical
// fingerprints regardless of worker count; the equivalence cell enforces it.
func fabricFingerprint(f *cluster.Fabric, rrs []*workload.RR) string {
	var b strings.Builder
	for i, rr := range rrs {
		fmt.Fprintf(&b, "rr%d %d %d %d|", i, rr.Results.Ops, rr.Results.Errors,
			rr.Results.Latency.Percentile(99))
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

// fabOut is one fabricscaling cell's measurements. Only sim-time observables
// appear here — wall-clock speedups are machine-dependent and are measured
// by BenchmarkFabricSharded and vriobench, never in a Result row.
type fabOut struct {
	name       string
	racks      int
	vms        int
	oversub    float64
	kopsPerSec float64
	p50, p99   float64
	xshard     uint64
	windows    uint64
	noRoute    uint64  // DropNoRoute summed over every ToR and spine switch
	ecmpImb    float64 // worst per-rack uplink ECMP imbalance (1.0 = even)
	identical  string  // "yes"/"DIVERGED" for the equivalence cell, "-" otherwise
}

// fabricNoRoute sums the no-route drop gauges across every ToR registry and
// the spine registry — the fabric's misrouting health signal.
func fabricNoRoute(f *cluster.Fabric) uint64 {
	var n float64
	for _, tb := range f.Racks {
		n += tb.Metrics.Value("switch", "drops_no_route")
	}
	for s := range f.Spines {
		n += f.SpineMetrics.Value(fmt.Sprintf("spine%d", s), "drops_no_route")
	}
	return uint64(n)
}

// fabricECMPImbalance reports the worst rack's uplink imbalance gauge:
// max-uplink frames over the even share. 1.0 is a perfectly even spread.
func fabricECMPImbalance(f *cluster.Fabric) float64 {
	var worst float64
	for _, tb := range f.Racks {
		if v := tb.Metrics.Value("fabric", "ecmp_imbalance"); v > worst {
			worst = v
		}
	}
	return worst
}

// fabricScalingPlan is the tentpole's experiment: a serial-vs-sharded
// equivalence cell, an oversubscription sweep, and the 16-rack scale cell,
// all with every transaction crossing the spine fabric.
func fabricScalingPlan(quick bool) Plan {
	warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
	racks := 16
	if fabricRacksOverride > 0 {
		racks = fabricRacksOverride
	} else if quick {
		racks = 4
	}
	scaleOversub := 4.0
	if fabricOversubOverride > 0 {
		scaleOversub = fabricOversubOverride
	}

	var cells []Cell
	// Cell 0: equivalence — the same 4-rack fabric run serially and with
	// every available worker must be byte-identical.
	cells = append(cells, func() any {
		run := func(workers int) (string, fabOut) {
			f, err := cluster.BuildFabric(fabricScalingSpec(quick, 4, 4))
			if err != nil {
				panic(err)
			}
			defer f.Close()
			rrs := fabricRRRun(f, warm, dur, workers)
			o := fabOut{
				name: "serial vs sharded", racks: 4, vms: len(rrs), oversub: 4,
				kopsPerSec: float64(totalOps(rrs)) / dur.Seconds() / 1000,
				p50:        latencyPercentilesMicros(rrs)[0],
				p99:        latencyPercentilesMicros(rrs)[2],
				xshard:     fabricXshard(f),
				windows:    f.Group.Windows,
				noRoute:    fabricNoRoute(f),
				ecmpImb:    fabricECMPImbalance(f),
			}
			return fabricFingerprint(f, rrs), o
		}
		serialFP, o := run(1)
		shardedFP, _ := run(fabricWorkers())
		o.identical = "yes"
		if serialFP != shardedFP {
			o.identical = "DIVERGED"
		}
		return o
	})
	// Cells 1..3: oversubscription sweep at a fixed small fabric. The rack
	// population is pinned to one VMhost regardless of quick/full (only the
	// duration grows) so the derived per-uplink capacity stays small enough
	// for the latency-bound RR load to queue against — with a full rack the
	// uplink capacity scales with the host count while closed-loop RR load
	// does not, and every ratio would measure an idle uplink.
	for _, ov := range []float64{1, 4, 8} {
		ov := ov
		cells = append(cells, func() any {
			spec := fabricScalingSpec(quick, 4, ov)
			spec.Rack.VMHosts = 1
			f, err := cluster.BuildFabric(spec)
			if err != nil {
				panic(err)
			}
			defer f.Close()
			rrs := fabricRRRun(f, warm, dur, fabricWorkers())
			pcts := latencyPercentilesMicros(rrs)
			return fabOut{
				name: fmt.Sprintf("oversub %g:1", ov), racks: 4, vms: len(rrs), oversub: ov,
				kopsPerSec: float64(totalOps(rrs)) / dur.Seconds() / 1000,
				p50:        pcts[0], p99: pcts[2],
				xshard:    fabricXshard(f),
				windows:   f.Group.Windows,
				noRoute:   fabricNoRoute(f),
				ecmpImb:   fabricECMPImbalance(f),
				identical: "-",
			}
		})
	}
	// Cell 4: the scale cell — 16 racks (or -racks), sharded execution.
	cells = append(cells, func() any {
		f, err := cluster.BuildFabric(fabricScalingSpec(quick, racks, scaleOversub))
		if err != nil {
			panic(err)
		}
		defer f.Close()
		rrs := fabricRRRun(f, warm, dur, fabricWorkers())
		pcts := latencyPercentilesMicros(rrs)
		return fabOut{
			name: fmt.Sprintf("scale, %d racks", racks), racks: racks, vms: len(rrs),
			oversub:    scaleOversub,
			kopsPerSec: float64(totalOps(rrs)) / dur.Seconds() / 1000,
			p50:        pcts[0], p99: pcts[2],
			xshard:    fabricXshard(f),
			windows:   f.Group.Windows,
			noRoute:   fabricNoRoute(f),
			ecmpImb:   fabricECMPImbalance(f),
			identical: "-",
		}
	})

	return Plan{
		Cells: cells,
		Assemble: func(out []any) Result {
			next := cursor(out)
			res := Result{
				ID:    "fabricscaling",
				Title: "Spine-leaf fabric: sharded simulation equivalence, oversubscription, and rack scale-out",
				Header: []string{"cell", "racks", "VMs", "oversub", "kops/s",
					"p50 [µs]", "p99 [µs]", "xshard msgs", "windows", "no_route", "ecmp", "identical"},
			}
			for range out {
				o := next().(fabOut)
				res.Rows = append(res.Rows, []string{
					o.name, fmt.Sprintf("%d", o.racks), fmt.Sprintf("%d", o.vms),
					fmt.Sprintf("%g:1", o.oversub), f1(o.kopsPerSec),
					f1(o.p50), f1(o.p99),
					fmt.Sprintf("%d", o.xshard), fmt.Sprintf("%d", o.windows),
					fmt.Sprintf("%d", o.noRoute), fmt.Sprintf("%.2f", o.ecmpImb), o.identical,
				})
			}
			res.Notes = append(res.Notes,
				"Every transaction crosses the spine tier twice (request and reply); station r drives the guests of rack r+1.",
				"The equivalence cell runs the same fabric serially (workers=1) and sharded (one worker per core): 'identical' compares ops, latency histograms, per-shard event counts, and switch counters byte for byte.",
				"Oversubscription divides the per-uplink bandwidth (downlink capacity / ratio x uplinks); the sweep pins each rack to one VMhost so the uplink stays the contended resource — latency rises and throughput falls as the ratio grows.",
				"Wall-clock shard speedup is machine-dependent and reported by vriobench (sim.shard_speedup), not here — these rows are byte-reproducible per seed.",
				"no_route sums the DropNoRoute gauges over every ToR and spine switch (0 in a healthy fabric); ecmp is the worst rack's uplink imbalance — max uplink frames over the even share, 1.0 = perfectly spread.",
			)
			return res
		},
	}
}

// FabricBenchRun builds the 16-rack scale fabric (honoring the -racks and
// -oversub overrides) and runs the cross-rack RR workload with the given
// worker count, returning total simulated events executed. The caller times
// it — this is the body of BenchmarkFabricSharded and of vriobench's
// sim.shard_speedup, kept here so both measure exactly the workload the
// fabricscaling experiment reports.
func FabricBenchRun(quick bool, workers int) uint64 {
	warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
	racks := 16
	if fabricRacksOverride > 0 {
		racks = fabricRacksOverride
	}
	oversub := 4.0
	if fabricOversubOverride > 0 {
		oversub = fabricOversubOverride
	}
	// Always the full per-rack population: quick shortens the run, not the
	// racks — a near-empty rack has so little work per 4µs sync window that
	// the sweep would measure barrier overhead instead of the simulator.
	f, err := cluster.BuildFabric(fabricScalingSpec(false, racks, oversub))
	if err != nil {
		panic(err)
	}
	defer f.Close()
	fabricRRRun(f, warm, dur, workers)
	return f.TotalExecuted()
}

// fabricXshard sums cross-shard messages received across all shards.
func fabricXshard(f *cluster.Fabric) uint64 {
	var n uint64
	for _, s := range f.Group.Shards() {
		n += s.Received
	}
	return n
}
