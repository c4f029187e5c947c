package experiments

import (
	"strconv"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// modelAxis is the "model" axis over the given model names.
func modelAxis(ms []string) Axis { return axis("model", ms...) }

// table3 measures (not assumes) the per-request-response virtualization
// events of every model, read through the metrics registry: the same
// counters the components maintain, by component and name.
var table3 = &Grid{
	ID:    "table3",
	Title: "Exits and interrupts per request-response (measured)",
	Axes:  []Axis{modelAxis(fig5Models)},
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 2*sim.Millisecond, 50*sim.Millisecond)
		tb := cluster.Build(cluster.Spec{Model: core.ModelName(p["model"]), VMsPerHost: 1, Seed: 11})
		ops := float64(tb.RunEach(warm, dur, tb.StartRR).Ops)
		m := Metrics{"IOhost intrpts": tb.Metrics.Value("iohyp", "iohost_irqs") / ops}
		for name, counter := range map[string]string{"sync exits": "exits", "guest intrpts": "guest_irqs",
			"intrpt injection": "irq_injections", "host intrpts": "host_irqs"} {
			m[name] = tb.Metrics.Value("vm0", counter) / ops
		}
		m["sum"] = m["sync exits"] + m["guest intrpts"] + m["intrpt injection"] + m["host intrpts"] + m["IOhost intrpts"]
		return one(m)
	},
	Cols: []Col{axisCol("model"), num("sync exits", "sync exits", f1), num("guest intrpts", "guest intrpts", f1),
		num("intrpt injection", "intrpt injection", f1), num("host intrpts", "host intrpts", f1),
		num("IOhost intrpts", "IOhost intrpts", f1), num("sum", "sum", f1)},
	Claims: []Claim{
		{At: Point{"model": "optimum"}, Metric: "sum", Paper: 2, Check: Within(0.6)},
		{At: Point{"model": "vrio"}, Metric: "sum", Paper: 2, Check: Within(0.6)},
		{At: Point{"model": "elvis"}, Metric: "sum", Paper: 4, Check: Within(0.6)},
		{At: Point{"model": "vrio-nopoll"}, Metric: "sum", Paper: 6, Check: Within(0.6)},
		{At: Point{"model": "baseline"}, Metric: "sum", Paper: 9, Check: Within(0.6)},
		{Metric: "sum", Check: Ordered("model", "vrio", "elvis", "vrio-nopoll", "baseline")},
		{Metric: "guest intrpts", Paper: 2, Check: Within(0.3)},
		{At: Point{"model": "baseline"}, Metric: "sync exits", Paper: 3, Check: Within(0.3)},
		{At: Point{"model": "baseline"}, Metric: "intrpt injection", Paper: 2, Check: Within(0.3)},
		{At: Point{"model": "elvis"}, Metric: "host intrpts", Paper: 2, Check: Within(0.3)},
		{At: Point{"model": "vrio-nopoll"}, Metric: "IOhost intrpts", Paper: 4, Check: Within(0.3)},
	},
}

// modelCols prints one column per model of a metric, headed by the model.
func modelCols(ms []string, metric string, f func(float64) string) []Col {
	var cols []Col
	for _, m := range ms {
		cols = append(cols, num(m, metric, f, "model", m))
	}
	return cols
}

// fig5 runs ApacheBench on the five configurations.
var fig5 = &Grid{
	ID:    "fig5",
	Title: "ApacheBench aggregate requests/sec vs number of VMs",
	Axes:  []Axis{upTo("VMs", 7, 3), modelAxis(fig5Models)},
	Pivot: 1,
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
		tb := cluster.Build(cluster.Spec{Model: core.ModelName(p["model"]), VMsPerHost: p.Int("VMs"), StationPerVM: true, Seed: 21})
		s := tb.RunEach(warm, dur, func(i int) *workload.Results {
			return tb.StartMacro(i, workload.ApacheConfig(), tb.P.ApacheRequestCost)
		})
		return one(Metrics{"req/s": s.OpsPerSec})
	},
	Cols: append([]Col{axisCol("VMs")}, modelCols(fig5Models, "req/s", f0)...),
	Claims: []Claim{
		{At: Point{"VMs": "3"}, Metric: "req/s", Check: Ordered("model", "baseline", "vrio-nopoll", "elvis")},
		{At: Point{"VMs": "3"}, Metric: "req/s", Check: Ordered("model", "baseline", "vrio", "optimum")},
		{At: Point{"VMs": "3"}, Metric: "req/s", Check: Ordered("model", "elvis", "vrio"), Deviation: 1},
	},
}

// fig7 measures Netperf RR mean latency and percentiles vs N.
var fig7 = &Grid{
	ID:    "fig7",
	Title: "Netperf RR average latency [µs] vs number of VMs (N+1 cores; optimum N)",
	Axes:  []Axis{upTo("VMs", 7, 3), modelAxis(netModels)},
	Pivot: 1,
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
		tb := cluster.Build(cluster.Spec{Model: core.ModelName(p["model"]), VMsPerHost: p.Int("VMs"), Seed: 31})
		s := tb.RunEach(warm, dur, tb.StartRR)
		return one(Metrics{"mean": s.MeanMicros, "p50": s.P50Micros, "p95": s.P95Micros, "p99": s.P99Micros})
	},
	Cols: fig7Cols(),
	Claims: []Claim{
		{Metric: "mean", At: Point{"model": "optimum"}, Paper: 31, Check: Within(2.5)},
		{At: Point{"model": "vrio"}, Vs: Point{"model": "optimum"}, By: Gap, Metric: "mean", Paper: 12.5, Check: Within(3)},
		{At: Point{"VMs": "1", "model": "vrio"}, Vs: Point{"model": "elvis"}, By: Gap, Metric: "mean", Paper: 8, Check: Within(3)},
		{At: Point{"VMs": "1", "model": "vrio"}, Vs: Point{"model": "elvis"}, By: Ratio, Metric: "mean", Paper: 1.18, Check: Band(1, 1.18)},
		{At: Point{"VMs": "1"}, Metric: "mean", Check: Ordered("model", "optimum", "elvis", "vrio")},
		{At: Point{"VMs": "1", "model": "vrio"}, Vs: Point{"model": "baseline"}, By: Ratio, Metric: "mean", Paper: 1.2, Check: Band(0, 1.2)},
		{At: Point{"VMs": "3"}, Metric: "mean", Check: Ordered("model", "optimum", "elvis", "vrio", "baseline")},
		{At: Point{"model": "elvis"}, Vs: Point{"model": "vrio"}, By: Gap, Metric: "mean", Paper: 6, Check: Crosses("VMs", 5, 7), FullOnly: true},
		{At: Point{"VMs": "7", "model": "baseline"}, Metric: "mean", Paper: 60, Check: Within(15), Deviation: 2, FullOnly: true},
	},
}

func fig7Cols() []Col {
	// Model order of the columns; the percentile columns follow the means.
	colModels := models(core.ModelBaseline, core.ModelVRIO, core.ModelElvis, core.ModelOptimum)
	cols := append([]Col{axisCol("VMs")}, modelCols(colModels, "mean", f1)...)
	for _, m := range colModels {
		for _, p := range []string{"p50", "p95", "p99"} {
			cols = append(cols, num(m+"-"+p, p, f1, "model", m))
		}
	}
	return cols
}

// fig8 reports the vRIO-minus-optimum latency gap and the IOhost sidecore
// contention, from an optimum run and a vRIO run per N.
var fig8 = &Grid{
	ID:    "fig8",
	Title: "Netperf RR vRIO: latency gap vs optimum [µs] and sidecore contention [%]",
	Axes:  []Axis{upTo("VMs", 7, 3), axis("model", "optimum", "vrio")},
	Pivot: 1,
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
		tb := cluster.Build(cluster.Spec{Model: core.ModelName(p["model"]), VMsPerHost: p.Int("VMs"), Seed: 41})
		m := Metrics{"mean": tb.RunEach(warm, dur, tb.StartRR).MeanMicros}
		if len(tb.Sidecores) > 0 {
			var wait float64
			for _, sc := range tb.Sidecores {
				wait += sc.WaitFraction()
			}
			m["contention"] = wait / float64(len(tb.Sidecores)) * 100
		}
		return one(m)
	},
	Cols: []Col{axisCol("VMs"),
		{"gap [µs]", func(r Row) string { return f1(r.Get("mean", "model", "vrio") - r.Get("mean", "model", "optimum")) }},
		num("contention [%]", "contention", f1, "model", "vrio")},
	Claims: []Claim{
		{At: Point{"VMs": "1", "model": "vrio"}, Vs: Point{"model": "optimum"}, By: Gap, Metric: "mean", Paper: 12, Check: Within(2)},
		{At: Point{"model": "vrio"}, Metric: "contention", Check: Rising("VMs")},
		{At: Point{"VMs": "1", "model": "vrio"}, Metric: "contention", Paper: 5, Check: Within(2.5), Deviation: 5},
		{At: Point{"VMs": "7", "model": "vrio"}, Vs: Point{"model": "optimum"}, By: Gap, Metric: "mean", Paper: 13, Check: Within(2), FullOnly: true},
	},
}

// fig9 measures Netperf stream throughput vs N.
var fig9 = &Grid{
	ID:    "fig9",
	Title: "Netperf stream aggregate throughput [Gbps] vs number of VMs",
	Axes:  []Axis{upTo("VMs", 7, 3), modelAxis(models(core.ModelOptimum, core.ModelElvis, core.ModelVRIO, core.ModelBaseline))},
	Pivot: 1,
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 5*sim.Millisecond, 80*sim.Millisecond)
		tb := cluster.Build(cluster.Spec{Model: core.ModelName(p["model"]), VMsPerHost: p.Int("VMs"), Seed: 51})
		return one(Metrics{"Gbps": tb.RunEach(warm, dur, tb.StartStream).Gbps})
	},
	Cols: append([]Col{axisCol("VMs")},
		modelCols(models(core.ModelOptimum, core.ModelElvis, core.ModelVRIO, core.ModelBaseline), "Gbps", f2)...),
	Claims: []Claim{
		{At: Point{"VMs": "7", "model": "elvis"}, Vs: Point{"model": "optimum"}, By: Change, Metric: "Gbps", Paper: 0, Check: Within(0.03), FullOnly: true},
		{At: Point{"VMs": "7", "model": "vrio"}, Vs: Point{"model": "optimum"}, By: Change, Metric: "Gbps", Paper: -0.065, Check: Within(0.05), FullOnly: true},
		{At: Point{"VMs": "7"}, Metric: "Gbps", Check: Ordered("model", "baseline", "vrio", "elvis"), FullOnly: true},
	},
}

// fig10 measures VMhost-side cycles (ns of busy CPU) per stream chunk, N=1.
var fig10 = &Grid{
	ID:    "fig10",
	Title: "Per-packet processing [ns of VMhost CPU per 64KB chunk], N=1",
	Axes:  []Axis{modelAxis(netModels)},
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 5*sim.Millisecond, 80*sim.Millisecond)
		// NoJitter: background interference would smear the per-chunk cycle
		// accounting (models with more local cores absorb more jitter,
		// which is not what Figure 10 measures).
		tb := cluster.Build(cluster.Spec{Model: core.ModelName(p["model"]), VMsPerHost: 1, NoJitter: true, Seed: 61})
		chunks := tb.RunEach(warm, dur, tb.StartStream).Ops
		// VMhost busy fraction over the run, scaled to the measured
		// window's chunk count: ns of VMhost CPU per chunk.
		return one(Metrics{"ns/chunk": float64(vmhostBusy(tb)) / float64(tb.Eng.Now()) * float64(dur) / float64(chunks)})
	},
	Cols: []Col{axisCol("model"), num("ns/chunk", "ns/chunk", f0), vsFirst("vs optimum", "ns/chunk", "+0%")},
	Claims: []Claim{
		{At: Point{"model": "vrio"}, Vs: Point{"model": "optimum"}, By: Change, Metric: "ns/chunk", Paper: 0.09, Check: Within(0.05), FullOnly: true},
		{At: Point{"model": "elvis"}, Vs: Point{"model": "optimum"}, By: Change, Metric: "ns/chunk", Paper: 0.01, Check: Within(0.04), FullOnly: true},
		{At: Point{"model": "baseline"}, Vs: Point{"model": "optimum"}, By: Change, Metric: "ns/chunk", Paper: 0.40, Check: Within(0.1)},
	},
}

// vmhostBusy sums busy time across VM cores and local host cores (vRIO's
// IOhost cores are deliberately excluded: they are the remote device).
func vmhostBusy(tb *cluster.Testbed) sim.Time {
	var total sim.Time
	for _, c := range tb.VMCores {
		total += c.BusyTime()
	}
	for _, c := range tb.IOCores {
		total += c.BusyTime()
	}
	if tb.Spec.Model == core.ModelElvis {
		for _, c := range tb.Sidecores {
			total += c.BusyTime()
		}
	}
	return total
}

// fig11 equalizes core counts: the optimum gets N+1=8 cores (8 VMs) and is
// compared against the other models at N=7.
var fig11 = &Grid{
	ID:    "fig11",
	Title: "Stream throughput [Gbps] with equal cores: optimum 8 VMs vs others at N=7",
	Axes:  []Axis{axis("config", "optimum-8vms", "optimum", "elvis", "vrio", "baseline")},
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 5*sim.Millisecond, 80*sim.Millisecond)
		n, model := 7, p["config"]
		if quick {
			n = 3
		}
		if model == "optimum-8vms" {
			n, model = n+1, string(core.ModelOptimum)
		}
		tb := cluster.Build(cluster.Spec{Model: core.ModelName(model), VMsPerHost: n, Seed: 71})
		return one(Metrics{"Gbps": tb.RunEach(warm, dur, tb.StartStream).Gbps})
	},
	Cols: []Col{axisCol("config"), num("Gbps", "Gbps", f2), vsFirst("vs optimum-8vms", "Gbps", "0%")},
	Claims: []Claim{
		{At: Point{"config": "optimum"}, Vs: Point{"config": "optimum-8vms"}, By: Change, Metric: "Gbps", Paper: -0.11, Check: Within(0.05), FullOnly: true},
		{At: Point{"config": "elvis"}, Vs: Point{"config": "optimum-8vms"}, By: Change, Metric: "Gbps", Paper: -0.13, Check: Within(0.05), FullOnly: true},
		{At: Point{"config": "vrio"}, Vs: Point{"config": "optimum-8vms"}, By: Change, Metric: "Gbps", Paper: -0.18, Check: Within(0.05), FullOnly: true},
		{At: Point{"config": "baseline"}, Vs: Point{"config": "optimum-8vms"}, By: Change, Metric: "Gbps", Paper: -0.54, Check: Within(0.05)},
	},
}

// table4 reports RR tail latency percentiles for one VM: one cell per
// model, one Line per percentile.
var table4 = &Grid{
	ID:    "table4",
	Title: "Tail latency [µs] for one VM (Netperf RR)",
	Axes:  []Axis{modelAxis(models(core.ModelOptimum, core.ModelElvis, core.ModelVRIO))},
	Pivot: 1,
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 5*sim.Millisecond, 2000*sim.Millisecond)
		tb := cluster.Build(cluster.Spec{Model: core.ModelName(p["model"]), VMsPerHost: 1, Seed: 81})
		rr := tb.StartRR(0)
		tb.RunMeasured(warm, dur, rr)
		var out []Line
		for _, pc := range []float64{50, 95, 99, 99.9, 99.99, 99.999, 100} {
			out = append(out, Line{strconv.FormatFloat(pc, 'f', -1, 64) + "%", Metrics{"µs": float64(rr.Latency.Percentile(pc)) / 1000}})
		}
		return out
	},
	Cols: append([]Col{labelCol("percentile")}, modelCols(models(core.ModelOptimum, core.ModelElvis, core.ModelVRIO), "µs", f1)...),
	Claims: []Claim{
		{At: Point{"line": "99.9%"}, Metric: "µs", Check: Ordered("model", "optimum", "elvis", "vrio")},
		{At: Point{"line": "99.99%"}, Metric: "µs", Check: Ordered("model", "optimum", "elvis", "vrio")},
		{At: Point{"line": "99.999%"}, Metric: "µs", Check: Ordered("model", "optimum", "vrio", "elvis"), Deviation: 3},
		{At: Point{"line": "100%"}, Metric: "µs", Check: Ordered("model", "optimum", "vrio", "elvis"), Deviation: 3},
	},
}

// fig12 runs the memcached and apache macrobenchmarks across N.
var fig12 = &Grid{
	ID:    "fig12",
	Title: "Macrobenchmarks [K transactions/sec] vs number of VMs",
	Axes:  []Axis{upTo("VMs", 7, 3), axis("load", "mc", "ap"), modelAxis(netModels)},
	Pivot: 2,
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
		tb := cluster.Build(cluster.Spec{Model: core.ModelName(p["model"]), VMsPerHost: p.Int("VMs"), StationPerVM: true, Seed: 91})
		cfg, cost := workload.MemcachedConfig(), tb.P.MemcachedRequestCost
		if p["load"] == "ap" {
			cfg, cost = workload.ApacheConfig(), tb.P.ApacheRequestCost
		}
		s := tb.RunEach(warm, dur, func(i int) *workload.Results { return tb.StartMacro(i, cfg, cost) })
		return one(Metrics{"Ktps": s.OpsPerSec / 1000})
	},
	Cols: fig12Cols(),
	Claims: []Claim{
		{At: Point{"VMs": "3", "load": "mc"}, Metric: "Ktps", Check: Ordered("model", "baseline", "vrio", "optimum")},
		{At: Point{"VMs": "7", "load": "mc"}, Metric: "Ktps", Check: Ordered("model", "baseline", "elvis", "vrio", "optimum"), FullOnly: true},
	},
}

func fig12Cols() []Col {
	cols := []Col{axisCol("VMs")}
	for _, load := range []string{"mc", "ap"} {
		for _, m := range netModels {
			name := load + "-" + m
			if m == string(core.ModelBaseline) {
				name = load + "-base"
			}
			cols = append(cols, num(name, "Ktps", f1, "load", load, "model", m))
		}
	}
	return cols
}

// fig13 serves four VMhosts from one IOhost with 1, 2, and 4 sidecores: an
// RR latency cell and a stream throughput cell per point.
var fig13 = &Grid{
	ID:    "fig13",
	Title: "vRIO IOhost scalability: 4 VMhosts, RR latency [µs] and stream throughput [Gbps]",
	Axes: []Axis{{"VMs", func(quick bool) []string {
		if quick {
			return []string{"4", "8"}
		}
		return []string{"4", "8", "12", "16", "20", "24", "28"}
	}}, axis("load", "lat", "tput"), axis("sc", "1", "2", "4")},
	Pivot: 2,
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 4*sim.Millisecond, 40*sim.Millisecond)
		tb := cluster.Build(cluster.Spec{Model: core.ModelVRIO, VMHosts: 4, VMsPerHost: p.Int("VMs") / 4,
			IOhostSidecores: p.Int("sc"), Seed: 101})
		if p["load"] == "lat" {
			return one(Metrics{"µs": tb.RunEach(warm, dur, tb.StartRR).MeanMicros})
		}
		return one(Metrics{"Gbps": tb.RunEach(warm, dur, tb.StartStream).Gbps})
	},
	Cols: []Col{axisCol("VMs"),
		num("lat 1sc", "µs", f1, "load", "lat", "sc", "1"), num("lat 2sc", "µs", f1, "load", "lat", "sc", "2"),
		num("lat 4sc", "µs", f1, "load", "lat", "sc", "4"), num("tput 1sc", "Gbps", f2, "load", "tput", "sc", "1"),
		num("tput 2sc", "Gbps", f2, "load", "tput", "sc", "2"), num("tput 4sc", "Gbps", f2, "load", "tput", "sc", "4")},
	Claims: []Claim{
		{At: Point{"VMs": "8", "load": "lat"}, Metric: "µs", Check: Ordered("sc", "4", "2", "1")},
		{At: Point{"VMs": "28", "load": "tput", "sc": "1"}, Metric: "Gbps", Paper: 13, Check: Within(2), FullOnly: true},
		{At: Point{"VMs": "28", "load": "tput"}, Metric: "Gbps", Check: Ordered("sc", "1", "2", "4"), FullOnly: true},
	},
}

// heterogeneity runs vRIO stream clients of different kinds (VM and bare
// metal) and shows both attain the same service (§5 "Heterogeneity").
var heterogeneity = &Grid{
	ID:    "heterogeneity",
	Title: "vRIO with heterogeneous IOclients: per-client stream throughput [Gbps]",
	Axes:  []Axis{axis("client kind", "KVM guest", "bare metal")},
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
		tb := cluster.Build(cluster.Spec{Model: core.ModelVRIO, VMsPerHost: 1, BareClients: p["client kind"] == "bare metal", Seed: 111})
		s := tb.RunEach(warm, dur, tb.StartStream)
		return one(Metrics{"Gbps": s.Gbps, "util": tb.VMCores[0].Utilization() * 100})
	},
	Cols: []Col{axisCol("client kind"), num("Gbps", "Gbps", f2), num("VM-core util [%]", "util", f1)},
	Claims: []Claim{
		{At: Point{"client kind": "bare metal"}, Vs: Point{"client kind": "KVM guest"}, By: Change, Metric: "Gbps", Paper: 0, Check: Within(0.02)},
		{At: Point{"client kind": "bare metal"}, Vs: Point{"client kind": "KVM guest"}, By: Change, Metric: "util", Paper: 0, Check: Within(0.05)},
	},
}
