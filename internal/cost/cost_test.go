package cost

import (
	"math"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.2f, want %.2f (±%.2f)", name, got, want, tol)
	}
}

// Figure 1: every CPU pair below the diagonal, every NIC pair on/above it.
func TestFigure1Separation(t *testing.T) {
	for _, p := range CPUPairs() {
		if p.AboveDiagonal() {
			t.Errorf("CPU pair %s above the diagonal (cost %.2f, capability %.2f)",
				p.Name, p.CostRatio(), p.CapabilityRatio())
		}
	}
	for _, p := range NICPairs() {
		if p.CapabilityRatio() < p.CostRatio() {
			t.Errorf("NIC pair %s below the diagonal (cost %.2f, capability %.2f)",
				p.Name, p.CostRatio(), p.CapabilityRatio())
		}
	}
}

// The paper's two worked examples.
func TestFigure1WorkedExamples(t *testing.T) {
	cpu := CPUPairs()[0]
	approx(t, "E7 cost ratio", cpu.CostRatio(), 1.51, 0.01)
	approx(t, "E7 core ratio", cpu.CapabilityRatio(), 1.25, 0.01)
	nic := NICPairs()[0]
	approx(t, "Mellanox cost ratio", nic.CostRatio(), 2.0, 0.01)
	approx(t, "Mellanox bw ratio", nic.CapabilityRatio(), 4.0, 0.01)
}

// Table 1's totals, memory sizes, and bandwidth sufficiency.
func TestTable1Servers(t *testing.T) {
	cases := []struct {
		s        Server
		price    float64
		memoryGB int
		gbps     float64
	}{
		{ElvisServer(), 44465, 288, 40},
		{VMHostServer(), 46994, 432, 80},
		{LightIOHostServer(), 26037, 64, 160},
		{HeavyIOHostServer(), 44291, 64, 320},
	}
	for _, c := range cases {
		approx(t, c.s.Name+" price", c.s.Price(), c.price, 1)
		if got := c.s.MemoryGB(); got != c.memoryGB {
			t.Errorf("%s memory = %dGB, want %d", c.s.Name, got, c.memoryGB)
		}
		approx(t, c.s.Name+" Gbps", c.s.GbpsTotal(), c.gbps, 0.01)
		// The paper's own Table 1 allows a <1% nominal shortfall (required
		// 160.31 vs installed 160.00 on the light IOhost).
		if c.s.GbpsTotal() < c.s.GbpsRequired*0.99 {
			t.Errorf("%s installed %.1f Gbps below required %.1f",
				c.s.Name, c.s.GbpsTotal(), c.s.GbpsRequired)
		}
	}
}

// Table 2: -10% and -13%.
func TestTable2RackPrices(t *testing.T) {
	r3 := Rack3()
	approx(t, "3-rack elvis", r3.ElvisPrice, 133395, 1)
	approx(t, "3-rack vrio", r3.VRIOPrice, 120025, 1)
	approx(t, "3-rack diff", r3.Diff(), -0.10, 0.005)

	r6 := Rack6()
	approx(t, "6-rack elvis", r6.ElvisPrice, 266790, 1)
	approx(t, "6-rack vrio", r6.VRIOPrice, 232267, 1)
	approx(t, "6-rack diff", r6.Diff(), -0.13, 0.005)
}

// Figure 3: the consolidation sweep spans roughly 8%-38% savings.
func TestFigure3Range(t *testing.T) {
	rows := Figure3()
	if len(rows) != (3+3)+(6+6) {
		t.Fatalf("rows = %d", len(rows))
	}
	minSave, maxSave := 1.0, 0.0
	for _, r := range rows {
		save := 1 - r.PriceRel
		if save <= 0 {
			t.Errorf("%s %s %s: vRIO not cheaper (ratio %.3f)", r.Rack, r.Drive, r.Ratio, r.PriceRel)
		}
		if save < minSave {
			minSave = save
		}
		if save > maxSave {
			maxSave = save
		}
	}
	if minSave < 0.05 || minSave > 0.11 {
		t.Errorf("min saving = %.1f%%, want ≈8%%", minSave*100)
	}
	if maxSave < 0.34 || maxSave > 0.42 {
		t.Errorf("max saving = %.1f%%, want ≈38%%", maxSave*100)
	}
}

// Figure 3's monotonicity: more consolidation, more savings.
func TestFigure3Monotone(t *testing.T) {
	rack := Rack6()
	prev := math.Inf(1)
	for v := 6; v >= 1; v-- {
		ratio, _, _ := SSDConsolidation(rack, PriceSSD6T4, 6, v)
		if ratio >= prev {
			t.Errorf("consolidating to %d drives did not reduce the ratio (%.3f >= %.3f)",
				v, ratio, prev)
		}
		prev = ratio
	}
}

// The paper's quoted vRIO totals at the sweep extremes of the 6-server
// rack: $311K (6=>6 smaller) and $246K (6=>1 smaller).
func TestFigure3PaperAnchors(t *testing.T) {
	_, _, v66 := SSDConsolidation(Rack6(), PriceSSD3T2, 6, 6)
	approx(t, "6=>6 smaller vrio total", v66, 310745, 10)
	_, _, v61 := SSDConsolidation(Rack6(), PriceSSD3T2, 6, 1)
	approx(t, "6=>1 smaller vrio total", v61, 246094, 10)
}

func TestSSDConsolidationValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid consolidation accepted")
		}
	}()
	SSDConsolidation(Rack3(), PriceSSD3T2, 2, 3)
}

func TestExtraNICScaling(t *testing.T) {
	// 1-3 drives: one NIC; 4-6 drives: two NICs.
	_, _, v3 := SSDConsolidation(Rack6(), PriceSSD3T2, 6, 3)
	_, _, v4 := SSDConsolidation(Rack6(), PriceSSD3T2, 6, 4)
	delta := v4 - v3
	if math.Abs(delta-(PriceSSD3T2+PriceNIC40DP)) > 1 {
		t.Errorf("4th drive should add a drive plus one 40G NIC, added %.0f", delta)
	}
}

func TestRackScaleAnchorsTable2(t *testing.T) {
	// RackScale must reproduce Table 2's two rows exactly.
	for _, tc := range []struct {
		n    int
		want RackSetup
	}{{2, Rack3()}, {4, Rack6()}} {
		got := RackScale(tc.n, false)
		if got.ElvisPrice != tc.want.ElvisPrice || got.VRIOPrice != tc.want.VRIOPrice {
			t.Errorf("RackScale(%d): $%.0f/$%.0f, want Table 2's $%.0f/$%.0f",
				tc.n, got.ElvisPrice, got.VRIOPrice, tc.want.ElvisPrice, tc.want.VRIOPrice)
		}
		if got.ElvisServers != tc.want.ElvisServers || got.IOHosts != tc.want.IOHosts {
			t.Errorf("RackScale(%d) server counts diverge from Table 2", tc.n)
		}
	}
}

func TestIOhostsFor(t *testing.T) {
	cases := []struct{ n, heavy, light int }{
		{0, 0, 0}, {1, 0, 1}, {2, 0, 1}, {3, 1, 0}, {4, 1, 0},
		{5, 1, 1}, {6, 1, 1}, {7, 2, 0}, {8, 2, 0}, {12, 3, 0},
	}
	for _, c := range cases {
		h, l := IOhostsFor(c.n)
		if h != c.heavy || l != c.light {
			t.Errorf("IOhostsFor(%d) = %d heavy, %d light; want %d, %d", c.n, h, l, c.heavy, c.light)
		}
		// The mix must actually carry the load; a light IOhost serves two.
		if c.n > 0 && h*VMhostsPerHeavyIOhost+l*2 < c.n {
			t.Errorf("IOhostsFor(%d) under-provisions", c.n)
		}
	}
	// One heavy must stay cheaper than the two lights it replaces.
	if HeavyIOHostServer().Price() >= 2*LightIOHostServer().Price() {
		t.Error("heavy IOhost no longer cheaper than two lights; IOhostsFor's remainder rule is stale")
	}
}

func TestRackScaleSweepAmortization(t *testing.T) {
	rows := RackScaleSweep(16)
	if len(rows) != 8 {
		t.Fatalf("sweep rows: %d", len(rows))
	}
	for i, r := range rows {
		if r.Diff >= 0 {
			t.Errorf("vRIO not cheaper at %d VMhosts: %+.1f%%", r.VMHosts, r.Diff*100)
		}
		if r.SpareDiff <= r.Diff {
			t.Errorf("spare cannot make the rack cheaper at %d VMhosts", r.VMHosts)
		}
		if i > 0 {
			// The spare's premium amortizes: its gap to the no-spare diff
			// narrows monotonically with rack size at full-heavy points.
			prev := rows[i-1]
			if r.VMHosts%4 == 0 && prev.VMHosts%4 == 0 &&
				(r.SpareDiff-r.Diff) > (prev.SpareDiff-prev.Diff)+1e-9 {
				t.Errorf("spare premium grew from %d to %d VMhosts", prev.VMHosts, r.VMHosts)
			}
		}
	}
	// At scale the spare'd rack must still beat Elvis.
	last := rows[len(rows)-1]
	if last.SpareDiff >= 0 {
		t.Errorf("16-VMhost rack with spare not cheaper than Elvis: %+.1f%%", last.SpareDiff*100)
	}
}
