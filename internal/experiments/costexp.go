package experiments

import (
	"fmt"
	"strconv"

	"vrio/internal/cost"
)

// The cost experiments are pure arithmetic over embedded price data: each
// cell is cheap and the quick and full runs agree.

// fig1 reproduces the CPU-vs-NIC upgrade scatter: one cell per hardware
// kind, one Line per adjacent upgrade pair.
var fig1 = &Grid{
	ID:    "fig1",
	Title: "Upgrade economics: added hardware vs added cost (Figure 1)",
	Axes:  []Axis{axis("kind", "CPU", "NIC")},
	Cell: func(_ bool, p Point) []Line {
		pairs := cost.CPUPairs()
		if p["kind"] == "NIC" {
			pairs = cost.NICPairs()
		}
		var out []Line
		for _, pr := range pairs {
			above := 0.0
			if pr.AboveDiagonal() {
				above = 1
			}
			out = append(out, Line{pr.Name, Metrics{
				"cost ratio": pr.CostRatio(), "capability ratio": pr.CapabilityRatio(), "above diagonal": above}})
		}
		return out
	},
	Cols: []Col{axisCol("kind"), labelCol("pair"), num("cost ratio", "cost ratio", f2),
		num("capability ratio", "capability ratio", f2),
		{"side of diagonal", func(r Row) string {
			if r.Get("above diagonal") == 1 {
				return "above"
			}
			return "below"
		}}},
	Claims: []Claim{
		{At: Point{"kind": "CPU"}, Metric: "above diagonal", Paper: 0, Check: Within(0)},
		{At: Point{"kind": "NIC"}, Metric: "above diagonal", Paper: 1, Check: Within(0)},
		{At: Point{"line": "E7-8850v2->E7-8870v2"}, Metric: "cost ratio", Paper: 1.51, Check: Within(0.005)},
		{At: Point{"line": "E7-8850v2->E7-8870v2"}, Metric: "capability ratio", Paper: 1.25, Check: Within(0.005)},
		{At: Point{"line": "MCX312B(2x10G)->MCX314A(2x40G)"}, Metric: "cost ratio", Paper: 2, Check: Within(0.005)},
		{At: Point{"line": "MCX312B(2x10G)->MCX314A(2x40G)"}, Metric: "capability ratio", Paper: 4, Check: Within(0.005)},
	},
}

// table1 reproduces the per-server configurations.
var table1 = &Grid{
	ID:    "table1",
	Title: "Dell R930 per-server price, components, and throughput (Table 1)",
	Axes:  []Axis{axis("server", "elvis", "vmhost", "light-iohost", "heavy-iohost")},
	Cell: func(_ bool, p Point) []Line {
		for _, s := range []cost.Server{cost.ElvisServer(), cost.VMHostServer(),
			cost.LightIOHostServer(), cost.HeavyIOHostServer()} {
			if s.Name == p["server"] {
				return one(Metrics{"CPUs": float64(s.CPUs), "memory [GB]": float64(s.MemoryGB()),
					"price [$]": s.Price(), "Gbps installed": s.GbpsTotal(), "Gbps required": s.GbpsRequired})
			}
		}
		panic("table1: unknown server " + p["server"])
	},
	Cols: []Col{axisCol("server"), num("CPUs", "CPUs", d), num("memory [GB]", "memory [GB]", d),
		num("price [$]", "price [$]", f0), num("Gbps installed", "Gbps installed", f2),
		num("Gbps required", "Gbps required", f2)},
	Claims: []Claim{
		{At: Point{"server": "elvis"}, Metric: "price [$]", Paper: 44500, Check: Within(100)},
		{At: Point{"server": "vmhost"}, Metric: "price [$]", Paper: 47000, Check: Within(100)},
		{At: Point{"server": "light-iohost"}, Metric: "price [$]", Paper: 26000, Check: Within(100)},
		{At: Point{"server": "heavy-iohost"}, Metric: "price [$]", Paper: 44200, Check: Within(100)},
		{At: Point{"server": "elvis"}, Metric: "memory [GB]", Paper: 288, Check: Within(0)},
		{At: Point{"server": "vmhost"}, Metric: "memory [GB]", Paper: 432, Check: Within(0)},
		{At: Point{"server": "light-iohost"}, Metric: "memory [GB]", Paper: 64, Check: Within(0)},
		{At: Point{"server": "heavy-iohost"}, Metric: "memory [GB]", Paper: 64, Check: Within(0)},
		{At: Point{"server": "elvis"}, Metric: "Gbps installed", Paper: 40, Check: Within(0)},
		{At: Point{"server": "vmhost"}, Metric: "Gbps installed", Paper: 80, Check: Within(0)},
		{At: Point{"server": "light-iohost"}, Metric: "Gbps installed", Paper: 160, Check: Within(0)},
		{At: Point{"server": "heavy-iohost"}, Metric: "Gbps installed", Paper: 320, Check: Within(0)},
	},
}

// table2 reproduces the rack-level price comparison.
var table2 = &Grid{
	ID:    "table2",
	Title: "Overall price of the Elvis and vRIO setups (Table 2)",
	Axes:  []Axis{axis("setup", "R930 x 3", "R930 x 6")},
	Cell: func(_ bool, p Point) []Line {
		r := cost.Rack3()
		if p["setup"] == cost.Rack6().Name {
			r = cost.Rack6()
		}
		return one(Metrics{"elvis servers": float64(r.ElvisServers), "vmhosts": float64(r.VMHosts),
			"iohosts": float64(r.IOHosts), "elvis price [$]": r.ElvisPrice, "vrio price [$]": r.VRIOPrice, "diff": r.Diff()})
	},
	Cols: []Col{axisCol("setup"), num("elvis servers", "elvis servers", d),
		{"vrio servers", func(r Row) string { return d(r.Get("vmhosts")) + "+" + d(r.Get("iohosts")) }},
		num("elvis price [$]", "elvis price [$]", f0), num("vrio price [$]", "vrio price [$]", f0),
		num("diff", "diff", pct)},
	Claims: []Claim{
		{At: Point{"setup": "R930 x 3"}, Metric: "diff", Paper: -0.10, Check: Within(0.005)},
		{At: Point{"setup": "R930 x 6"}, Metric: "diff", Paper: -0.13, Check: Within(0.005)},
		{At: Point{"setup": "R930 x 3"}, Metric: "elvis price [$]", Paper: 133400, Check: Within(150)},
		{At: Point{"setup": "R930 x 3"}, Metric: "vrio price [$]", Paper: 120000, Check: Within(150)},
		{At: Point{"setup": "R930 x 6"}, Metric: "elvis price [$]", Paper: 266900, Check: Within(150)},
		{At: Point{"setup": "R930 x 6"}, Metric: "vrio price [$]", Paper: 232300, Check: Within(150)},
	},
}

// fig3 reproduces the SSD consolidation sweep: one cell per rack and drive,
// one Line per consolidation ratio.
var fig3 = &Grid{
	ID:    "fig3",
	Title: "vRIO price relative to Elvis per SSD consolidation ratio (Figure 3)",
	Axes:  []Axis{axis("rack", "R930 x 3", "R930 x 6"), axis("drive", "3.2TB", "6.4TB")},
	Cell: func(_ bool, p Point) []Line {
		var out []Line
		for _, r := range cost.Figure3() {
			if r.Rack == p["rack"] && r.Drive == p["drive"] {
				out = append(out, Line{r.Ratio, Metrics{"vrio/elvis": r.PriceRel, "vrio total [$]": r.VRIOTotal}})
			}
		}
		return out
	},
	Cols: []Col{axisCol("rack"), axisCol("drive"), labelCol("ratio"),
		num("vrio/elvis", "vrio/elvis", func(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }),
		num("vrio total [$]", "vrio total [$]", f0)},
	Claims: []Claim{
		{At: Point{"rack": "R930 x 3", "drive": "3.2TB", "line": "3=>3"}, Metric: "vrio/elvis", Paper: 0.92, Check: Within(0.015)},
		{At: Point{"rack": "R930 x 6", "drive": "6.4TB", "line": "6=>1"}, Metric: "vrio/elvis", Paper: 0.62, Check: Within(0.015)},
		{At: Point{"rack": "R930 x 6", "drive": "3.2TB"}, Metric: "vrio/elvis", Check: Falling("ratio")},
		{At: Point{"rack": "R930 x 6", "drive": "3.2TB", "line": "6=>6"}, Metric: "vrio total [$]", Paper: 311000, Check: Within(500)},
		{At: Point{"rack": "R930 x 6", "drive": "3.2TB", "line": "6=>1"}, Metric: "vrio total [$]", Paper: 246000, Check: Within(500)},
	},
}

// tablerack extends Table 2 across rack sizes: the IOhost price amortizes
// over more VMhosts, and the §4.6 spare's fault-tolerance premium shrinks.
var tablerack = &Grid{
	ID:    "tablerack",
	Title: "Rack-scale amortization: Table 2 generalized over NumIOhosts",
	Cell: func(bool, Point) []Line {
		var out []Line
		for _, r := range cost.RackScaleSweep(16) {
			out = append(out, Line{strconv.Itoa(r.VMHosts), Metrics{"IOhosts": float64(r.IOHosts),
				"diff": r.Diff, "spare diff": r.SpareDiff, "$/VMhost": r.PerVMhostUSD}})
		}
		return out
	},
	Cols: []Col{labelCol("VMhosts"), num("IOhosts", "IOhosts", d), num("vrio vs elvis", "diff", pct),
		num("with spare IOhost", "spare diff", pct), num("vrio $/VMhost", "$/VMhost", f0)},
	Notes: lines(
		"VMhosts=2 and 4 reproduce Table 2's -10% and -13% rows; the Elvis side is ceil(1.5x) servers of equal guest capacity.",
		"A heavy IOhost serves 4 VMhosts, a light one 2 (Table 1 installed-vs-required bandwidth); the mix is the cheapest that carries the load.",
		"The spare column adds one standby IOhost of the largest deployed kind — the internal/rack failure detector makes it (or any survivor) take over automatically.",
	),
}
