package experiments

import (
	"strconv"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/cpu"
	"vrio/internal/interpose"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// fig14Mixes maps each thread mix to its reader and writer counts.
var fig14Mixes = map[string][2]int{"1 reader": {1, 0}, "1 pair": {1, 1}, "2 pairs": {2, 2}}

// fig14 runs Filebench on a per-VM ramdisk with growing concurrency.
var fig14 = &Grid{
	ID:    "fig14",
	Title: "Filebench/ramdisk aggregate ops/sec vs number of VMs",
	Axes: []Axis{axis("mix", "1 reader", "1 pair", "2 pairs"), {"VMs", func(quick bool) []string {
		if quick {
			return []string{"1", "2"}
		}
		return []string{"1", "3", "5", "7"}
	}}, modelAxis(models(core.ModelElvis, core.ModelVRIO, core.ModelBaseline))},
	Pivot: 1,
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 4*sim.Millisecond, 40*sim.Millisecond)
		tb := cluster.Build(cluster.Spec{
			Model: core.ModelName(p["model"]), VMsPerHost: p.Int("VMs"), WithBlock: true, WithThreads: true, Seed: 201,
		})
		mix := fig14Mixes[p["mix"]]
		s := tb.RunEach(warm, dur, func(i int) *workload.Results { return tb.StartFilebench(i, mix[0], mix[1], 300) })
		return one(Metrics{"ops/s": s.OpsPerSec})
	},
	Cols: append([]Col{axisCol("VMs"), axisCol("mix")},
		modelCols(models(core.ModelElvis, core.ModelVRIO, core.ModelBaseline), "ops/s", f0)...),
	Claims: []Claim{
		{At: Point{"mix": "1 reader", "VMs": "1", "model": "elvis"}, Vs: Point{"model": "vrio"}, By: Ratio, Metric: "ops/s", Paper: 2.2, Check: Within(0.1)},
		{At: Point{"mix": "1 reader", "VMs": "7"}, Metric: "ops/s", Check: Ordered("model", "baseline", "vrio"), FullOnly: true},
		{At: Point{"mix": "2 pairs", "VMs": "7"}, Metric: "ops/s", Check: Ordered("model", "elvis", "vrio"), Deviation: 4, FullOnly: true},
	},
}

// webserverBed builds the §5 "Improving Utilization" testbed from s: two
// VMhosts x five VMs, each with a remote/local 1GB ramdisk and a guest
// thread scheduler for the Webserver personality.
func webserverBed(s cluster.Spec) *cluster.Testbed {
	s.VMHosts, s.VMsPerHost, s.WithBlock, s.WithThreads = 2, 5, true, true
	return cluster.Build(s)
}

// sidecoreSpecs names the webserver configurations of Figures 15 and 16 by
// their printed label: model, sidecores per VMhost, IOhost sidecores.
var sidecoreSpecs = map[string]cluster.Spec{
	"elvis (1 sidecore/host)":         {Model: core.ModelElvis, SidecoresPerHost: 1},
	"vrio (1 consolidated sidecore)":  {Model: core.ModelVRIO, IOhostSidecores: 1},
	"elvis (2 sidecores)":             {Model: core.ModelElvis, SidecoresPerHost: 1},
	"vrio (1 sidecore)":               {Model: core.ModelVRIO, IOhostSidecores: 1},
	"baseline (N+1 cores)":            {Model: core.ModelBaseline},
	"elvis (1 local sidecore usable)": {Model: core.ModelElvis, SidecoresPerHost: 1},
	"vrio (2 consolidated sidecores)": {Model: core.ModelVRIO, IOhostSidecores: 2},
}

// fig15 samples sidecore utilization over the webserver run: one Line per
// sidecore.
var fig15 = &Grid{
	ID:    "fig15",
	Title: "Sidecore CPU utilization under the Webserver personality (2 VMhosts x 5 VMs)",
	Axes:  []Axis{axis("config", "elvis (1 sidecore/host)", "vrio (1 consolidated sidecore)")},
	Cell: func(quick bool, p Point) []Line {
		warm, dur := durations(quick, 5*sim.Millisecond, 100*sim.Millisecond)
		s := sidecoreSpecs[p["config"]]
		s.Seed = 211
		tb := webserverBed(s)
		rs := tb.StartEach(func(i int) *workload.Results { return tb.StartWebserver(i, 400, 2) })
		var samplers []*cpu.Sampler
		for _, sc := range tb.Sidecores {
			samplers = append(samplers, cpu.NewSampler(tb.Eng, sc, sim.Millisecond))
		}
		tb.RunMeasured(warm, dur, rs...)
		var out []Line
		for i, sc := range tb.Sidecores {
			elapsed := float64(tb.Eng.Now())
			out = append(out, Line{strconv.Itoa(i), Metrics{"samples": float64(samplers[i].Series.Len()),
				"busy": float64(sc.BusyTime()) / elapsed * 100, "poll": float64(sc.Accounted(cpu.KindPoll)) / elapsed * 100}})
		}
		return out
	},
	Cols: []Col{axisCol("config"),
		{"sidecore", func(r Row) string { return r.Label() + " (samples=" + d(r.Get("samples")) + ")" }},
		num("useful busy [%]", "busy", f1), num("wasted poll [%]", "poll", f1)},
	Claims: []Claim{
		{At: Point{"config": "elvis (1 sidecore/host)"}, Metric: "poll", Paper: 75, Check: Within(10)},
		{At: Point{"line": "0"}, Metric: "poll", Check: Ordered("config", "vrio (1 consolidated sidecore)", "elvis (1 sidecore/host)")},
		{At: Point{"line": "0"}, Metric: "busy", Check: Ordered("config", "elvis (1 sidecore/host)", "vrio (1 consolidated sidecore)")},
	},
}

// webserverMbps runs the webserver testbed of config and returns its
// aggregate throughput.
func webserverMbps(quick bool, config string, seed uint64, activeHosts int, chain func(host, vm int) *interpose.Chain) float64 {
	warm, dur := durations(quick, 5*sim.Millisecond, 100*sim.Millisecond)
	s := sidecoreSpecs[config]
	s.Seed, s.BlkChain = seed, chain
	tb := webserverBed(s)
	return tb.RunEach(warm, dur, func(i int) *workload.Results { return tb.StartWebserver(i, 400, activeHosts) }).Gbps * 1e3
}

// fig16a is the consolidation tradeoff: same workload, half the sidecores
// for vRIO.
var fig16a = &Grid{
	ID:    "fig16a",
	Title: "Webserver throughput [Mbps], sidecore consolidation 2=>1",
	Axes:  []Axis{axis("config", "elvis (2 sidecores)", "vrio (1 sidecore)", "baseline (N+1 cores)")},
	Cell: func(quick bool, p Point) []Line {
		return one(Metrics{"Mbps": webserverMbps(quick, p["config"], 221, 2, nil)})
	},
	Cols: []Col{axisCol("config"), num("Mbps", "Mbps", f1), vsFirst("vs elvis", "Mbps", "0%")},
	Claims: []Claim{
		{At: Point{"config": "vrio (1 sidecore)"}, Vs: Point{"config": "elvis (2 sidecores)"}, By: Change, Metric: "Mbps", Paper: -0.08, Check: Within(0.03)},
		{At: Point{"config": "baseline (N+1 cores)"}, Vs: Point{"config": "elvis (2 sidecores)"}, By: Change, Metric: "Mbps", Paper: -0.51, Check: Within(0.05), Deviation: 2},
	},
}

// fig16b is the load-imbalance experiment: only one VMhost is active, its
// I/O interposed with AES-256; both systems get a budget of two sidecores.
// Elvis has one sidecore per VMhost, and the active host can only use its
// own; vRIO's two sidecores, consolidated at the IOhost, both serve it.
var fig16b = &Grid{
	ID:    "fig16b",
	Title: "Webserver+AES throughput [Mbps] under load imbalance, 2=>2 sidecores",
	Axes:  []Axis{axis("config", "elvis (1 local sidecore usable)", "vrio (2 consolidated sidecores)")},
	Cell: func(quick bool, p Point) []Line {
		aes := func(host, vm int) *interpose.Chain {
			c, err := interpose.NewAES([]byte("0123456789abcdef0123456789abcdef"), params.Default().AESPerByteCost)
			if err != nil {
				panic(err)
			}
			return interpose.NewChain(c)
		}
		return one(Metrics{"Mbps": webserverMbps(quick, p["config"], 231, 1, aes)})
	},
	Cols: []Col{axisCol("config"), num("Mbps", "Mbps", f1), vsFirst("vs elvis", "Mbps", "0%")},
	Claims: []Claim{
		{At: Point{"config": "vrio (2 consolidated sidecores)"}, Vs: Point{"config": "elvis (1 local sidecore usable)"}, By: Change, Metric: "Mbps", Paper: 0.82, Check: Within(0.12)},
	},
}
