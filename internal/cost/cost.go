// Package cost implements §3's cost-effectiveness analysis: the CPU-vs-NIC
// upgrade-price scatter (Figure 1), the Dell R930 server configurations
// (Table 1), the rack-level Elvis-vs-vRIO comparison (Table 2), and the SSD
// consolidation sweep (Figure 3).
//
// Component prices are embedded as data. The Dell/Intel/Mellanox numbers
// the paper states explicitly are used verbatim; the Figure 1 scatter
// additionally embeds a snapshot of 2015-era adjacent CPU/NIC pairs
// reconstructed from public price lists (the paper's exact list is not
// reproduced in the text — DESIGN.md records this substitution).
package cost

import "fmt"

// Pair is one "adjacent" upgrade: two components identical except for
// capability (cores or bandwidth), per §3's adjacency definition.
type Pair struct {
	Name         string
	LowPrice     float64
	HighPrice    float64
	LowCapacity  float64 // cores or Gbps
	HighCapacity float64
}

// CostRatio is the x-axis of Figure 1 (added cost).
func (p Pair) CostRatio() float64 { return p.HighPrice / p.LowPrice }

// CapabilityRatio is the y-axis of Figure 1 (added hardware).
func (p Pair) CapabilityRatio() float64 { return p.HighCapacity / p.LowCapacity }

// AboveDiagonal reports whether the upgrade gains more capability than it
// costs (NICs in Figure 1 are above; CPUs below).
func (p Pair) AboveDiagonal() bool { return p.CapabilityRatio() > p.CostRatio() }

// CPUPairs is the Figure 1 CPU data: adjacent Xeon pairs. The first entry
// is the paper's worked example (E7-8850 v2 -> E7-8870 v2).
func CPUPairs() []Pair {
	return []Pair{
		{"E7-8850v2->E7-8870v2", 3059, 4616, 12, 15},
		{"E5-2620v3->E5-2630v3", 417, 667, 6, 8},
		{"E5-2630v3->E5-2650v3", 667, 1166, 8, 10},
		{"E5-2650v3->E5-2660v3", 1166, 1445, 10, 10 * 1.05}, // clock-adjusted
		{"E5-2660v3->E5-2680v3", 1445, 1745, 10, 12},
		{"E5-2680v3->E5-2690v3", 1745, 2090, 12, 12 * 1.08},
		{"E5-2683v3->E5-2695v3", 1846, 2424, 14, 14 * 1.10},
		{"E5-2695v3->E5-2698v3", 2424, 3226, 14, 16},
		{"E5-2698v3->E5-2699v3", 3226, 4115, 16, 18},
		{"E7-4820v3->E7-4830v3", 1502, 2170, 10, 12},
		{"E7-4850v3->E7-8860v3", 3003, 4061, 14, 16},
		{"E7-8870v3->E7-8890v3", 5896, 7174, 18, 18 * 1.15},
	}
}

// NICPairs is the Figure 1 NIC data; the first entry is the paper's worked
// Mellanox example (2x10GbE ConnectX-3 -> 2x40GbE ConnectX-3).
func NICPairs() []Pair {
	return []Pair{
		{"MCX312B(2x10G)->MCX314A(2x40G)", 560, 1121, 20, 80},
		{"Intel X520(2x10G)->XL710(2x40G)", 400, 583, 20, 80},
		{"Chelsio T520(2x10G)->T580(2x40G)", 505, 960, 20, 80},
		{"Emulex OCe14102(2x10G)->OCe14401(1x40G)", 459, 630, 20, 40},
		{"SolarFlare SFN7122F(2x10G)->SFN7142Q(2x40G)", 795, 1355, 20, 80},
		{"HotLava 2x10G->4x10G", 470, 705, 20, 40},
		{"Dell X520(2x10G)->X710(4x10G)", 435, 640, 20, 40},
		{"Mellanox CX4(1x25G)->CX4(1x50G)", 420, 630, 25, 50},
	}
}

// --- Table 1 ---

// Component prices for the Dell PowerEdge R930 (paper Table 1, Dell's
// July 2015 configurator).
const (
	PriceBase    = 6407.0
	PriceCPU18c  = 8006.0 // 18-core 2.5GHz Xeon E7-8890 v3
	PriceDIMM8   = 172.0
	PriceDIMM16  = 273.0
	PriceNIC10DP = 560.0  // Mellanox 2x10GbE dual port, incl. cable
	PriceNIC40DP = 1121.0 // Mellanox 2x40GbE dual port, incl. cable
)

// SSD prices (§3: FusionIO SX300).
const (
	PriceSSD3T2 = 12706.0 // 3.2 TB
	PriceSSD6T4 = 24063.0 // 6.4 TB
)

// Server is one R930 configuration row of Table 1.
type Server struct {
	Name    string
	CPUs    int
	DIMM8   int
	DIMM16  int
	NIC10DP int
	NIC40DP int
	// GbpsRequired is the bandwidth the configuration must sustain.
	GbpsRequired float64
}

// Price totals the configuration.
func (s Server) Price() float64 {
	return PriceBase +
		float64(s.CPUs)*PriceCPU18c +
		float64(s.DIMM8)*PriceDIMM8 +
		float64(s.DIMM16)*PriceDIMM16 +
		float64(s.NIC10DP)*PriceNIC10DP +
		float64(s.NIC40DP)*PriceNIC40DP
}

// GbpsTotal reports installed NIC bandwidth.
func (s Server) GbpsTotal() float64 {
	return float64(s.NIC10DP)*20 + float64(s.NIC40DP)*80
}

// MemoryGB reports installed memory.
func (s Server) MemoryGB() int { return s.DIMM8*8 + s.DIMM16*16 }

// The four Table 1 configurations.

// ElvisServer is the Elvis host: VMs and their sidecores on one server.
func ElvisServer() Server {
	return Server{Name: "elvis", CPUs: 4, DIMM16: 18, NIC10DP: 2, GbpsRequired: 26.72}
}

// VMHostServer is a vRIO VMhost, whose I/O leaves over one dual-port
// 40 GbE NIC.
func VMHostServer() Server {
	return Server{Name: "vmhost", CPUs: 4, DIMM8: 2, DIMM16: 26, NIC40DP: 1, GbpsRequired: 40.08}
}

// LightIOHostServer is the 2-CPU IOhost serving two VMhosts.
func LightIOHostServer() Server {
	return Server{Name: "light-iohost", CPUs: 2, DIMM8: 8, NIC40DP: 2, GbpsRequired: 160.31}
}

// HeavyIOHostServer is the 4-CPU IOhost serving four VMhosts.
func HeavyIOHostServer() Server {
	return Server{Name: "heavy-iohost", CPUs: 4, DIMM8: 8, NIC40DP: 4, GbpsRequired: 320.63}
}

// --- Table 2 ---

// RackSetup is one Table 2 row.
type RackSetup struct {
	Name         string
	ElvisPrice   float64
	VRIOPrice    float64
	ElvisServers int
	VMHosts      int
	IOHosts      int
}

// Diff reports the relative price difference (negative = vRIO cheaper).
func (r RackSetup) Diff() float64 { return r.VRIOPrice/r.ElvisPrice - 1 }

// Rack3 is the 3-server comparison (3 Elvis vs 2 VMhosts + 1 light IOhost).
func Rack3() RackSetup {
	return RackSetup{
		Name:         "R930 x 3",
		ElvisPrice:   3 * ElvisServer().Price(),
		VRIOPrice:    2*VMHostServer().Price() + LightIOHostServer().Price(),
		ElvisServers: 3, VMHosts: 2, IOHosts: 1,
	}
}

// Rack6 is the 6-server comparison (6 Elvis vs 4 VMhosts + 1 heavy IOhost).
func Rack6() RackSetup {
	return RackSetup{
		Name:         "R930 x 6",
		ElvisPrice:   6 * ElvisServer().Price(),
		VRIOPrice:    4*VMHostServer().Price() + HeavyIOHostServer().Price(),
		ElvisServers: 6, VMHosts: 4, IOHosts: 1,
	}
}

// --- Rack-scale amortization ("Table 5": Table 2 generalized to NumIOhosts) ---

// VMhostsPerHeavyIOhost is the fan-in implied by Table 1's
// required-vs-installed bandwidth: a heavy IOhost (320 Gbps installed)
// serves four 40 Gbps VMhosts, a light one (160 Gbps) serves two.
const VMhostsPerHeavyIOhost = 4

// IOhostsFor returns the cheapest IOhost mix able to serve n VMhosts: a
// heavy IOhost per full group of four, a light one for a remainder of one
// or two, and a heavy for a remainder of three (one heavy is cheaper than
// two lights).
func IOhostsFor(vmhosts int) (heavy, light int) {
	if vmhosts <= 0 {
		return 0, 0
	}
	heavy = vmhosts / VMhostsPerHeavyIOhost
	switch vmhosts % VMhostsPerHeavyIOhost {
	case 0:
	case 3:
		heavy++
	default:
		light++
	}
	return heavy, light
}

// RackScale prices a vRIO rack of n VMhosts — plus the IOhost mix from
// IOhostsFor, plus optionally one spare IOhost of the largest deployed kind
// (the §4.6 fault-tolerance fallback, which the rack control plane turns
// into N-way survivorship) — against the Elvis rack with the same guest
// capacity: ceil(1.5*n) Elvis servers, since a VMhost absorbs the paper's
// 1.5x VM multiplier. RackScale(2,false) and RackScale(4,false) reproduce
// Table 2's two rows exactly.
func RackScale(vmhosts int, spare bool) RackSetup {
	heavy, light := IOhostsFor(vmhosts)
	vrio := float64(vmhosts)*VMHostServer().Price() +
		float64(heavy)*HeavyIOHostServer().Price() +
		float64(light)*LightIOHostServer().Price()
	ioHosts := heavy + light
	name := fmt.Sprintf("vmhosts=%d", vmhosts)
	if spare {
		if heavy > 0 {
			vrio += HeavyIOHostServer().Price()
		} else {
			vrio += LightIOHostServer().Price()
		}
		ioHosts++
		name += "+spare"
	}
	elvisServers := (3*vmhosts + 1) / 2 // ceil(1.5 n)
	return RackSetup{
		Name:         name,
		ElvisPrice:   float64(elvisServers) * ElvisServer().Price(),
		VRIOPrice:    vrio,
		ElvisServers: elvisServers,
		VMHosts:      vmhosts,
		IOHosts:      ioHosts,
	}
}

// RackScaleRow is one point of the rack-scale sweep.
type RackScaleRow struct {
	VMHosts      int
	IOHosts      int     // without the spare
	Diff         float64 // vRIO vs Elvis, no spare
	SpareDiff    float64 // vRIO with one spare IOhost vs Elvis
	PerVMhostUSD float64 // vRIO price per VMhost served, spare excluded
}

// RackScaleSweep generates the rack-scale amortization table: the Table 2
// argument extended across rack sizes, with and without a §4.6 spare. The
// spare's premium shrinks as more VMhosts amortize it — the paper's cost
// case only improves at scale.
func RackScaleSweep(maxVMhosts int) []RackScaleRow {
	var rows []RackScaleRow
	for n := 2; n <= maxVMhosts; n += 2 {
		base := RackScale(n, false)
		withSpare := RackScale(n, true)
		rows = append(rows, RackScaleRow{
			VMHosts:      n,
			IOHosts:      base.IOHosts,
			Diff:         base.Diff(),
			SpareDiff:    withSpare.Diff(),
			PerVMhostUSD: base.VRIOPrice / float64(n),
		})
	}
	return rows
}

// --- Figure 3 ---

// SSDConsolidation computes the vRIO/Elvis price ratio for an e=>v drive
// consolidation on the given rack, with the given drive price. Per §3,
// consolidating up to three drives at the IOhost needs one extra 2x40G NIC,
// up to six needs two (the SX300 delivers 21.6 Gbps).
func SSDConsolidation(rack RackSetup, drivePrice float64, elvisDrives, vrioDrives int) (ratio float64, elvisTotal, vrioTotal float64) {
	if vrioDrives < 1 || elvisDrives < vrioDrives {
		panic(fmt.Sprintf("cost: bad consolidation %d=>%d", elvisDrives, vrioDrives))
	}
	extraNICs := (vrioDrives + 2) / 3
	elvisTotal = rack.ElvisPrice + float64(elvisDrives)*drivePrice
	vrioTotal = rack.VRIOPrice + float64(vrioDrives)*drivePrice + float64(extraNICs)*PriceNIC40DP
	return vrioTotal / elvisTotal, elvisTotal, vrioTotal
}

// Figure3Row is one consolidation point.
type Figure3Row struct {
	Rack      string
	Drive     string
	Ratio     string // e.g. "3=>2"
	PriceRel  float64
	VRIOTotal float64
}

// Figure3 sweeps the paper's consolidation ratios for both drive sizes and
// both racks.
func Figure3() []Figure3Row {
	var rows []Figure3Row
	racks := []RackSetup{Rack3(), Rack6()}
	drives := []struct {
		name  string
		price float64
	}{{"3.2TB", PriceSSD3T2}, {"6.4TB", PriceSSD6T4}}
	for _, rack := range racks {
		e := rack.ElvisServers
		for _, d := range drives {
			for v := e; v >= 1; v-- {
				ratio, _, vrioTotal := SSDConsolidation(rack, d.price, e, v)
				rows = append(rows, Figure3Row{
					Rack:      rack.Name,
					Drive:     d.name,
					Ratio:     fmt.Sprintf("%d=>%d", e, v),
					PriceRel:  ratio,
					VRIOTotal: vrioTotal,
				})
			}
		}
	}
	return rows
}
