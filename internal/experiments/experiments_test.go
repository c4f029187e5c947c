package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be registered,
	// plus the DESIGN.md ablations.
	want := []string{
		"fig1", "table1", "table2", "fig3",
		"table3", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11",
		"table4", "fig12", "fig13", "fig14", "fig15", "fig16a", "fig16b",
		"heterogeneity", "rackscaling", "tablerack", "fabricscaling",
		"ablation-mtu", "ablation-rxring", "ablation-retransmit", "ablation-steering",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if Get("fig7") == nil {
		t.Error("Get(fig7) = nil")
	}
	if Get("nope") != nil {
		t.Error("Get(nope) != nil")
	}
}

func TestFormatRendersAllCells(t *testing.T) {
	r := Result{
		ID: "x", Title: "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	out := Format(r)
	for _, want := range []string{"x", "t", "a", "bb", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q in:\n%s", want, out)
		}
	}
}

// The cost experiments are cheap; assert their headline numbers precisely.
func TestCostExperimentAnchors(t *testing.T) {
	t2 := table2(true)
	if len(t2.Rows) != 2 {
		t.Fatalf("table2 rows = %d", len(t2.Rows))
	}
	if t2.Rows[0][5] != "-10%" || t2.Rows[1][5] != "-13%" {
		t.Errorf("table2 diffs = %q, %q; want -10%%, -13%%", t2.Rows[0][5], t2.Rows[1][5])
	}
	f1r := fig1(true)
	for _, row := range f1r.Rows {
		if row[0] == "CPU" && row[4] != "below" {
			t.Errorf("CPU pair %s not below the diagonal", row[1])
		}
		if row[0] == "NIC" && row[4] == "below" {
			t.Errorf("NIC pair %s below the diagonal", row[1])
		}
	}
}

// One quick end-to-end shape check: Table 3's measured event sums must
// reproduce the paper's ordering 2 <= 2 < 4 < 6 < 9.
func TestTable3ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := table3(true)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	sum := map[string]float64{}
	for _, row := range res.Rows {
		v, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatalf("bad sum cell %q", row[6])
		}
		sum[row[0]] = v
	}
	if !(sum["optimum"] < 3 && sum["vrio"] < 3) {
		t.Errorf("optimum/vrio sums too high: %v", sum)
	}
	if !(sum["vrio"] < sum["elvis"] && sum["elvis"] < sum["vrio-nopoll"] &&
		sum["vrio-nopoll"] < sum["baseline"]) {
		t.Errorf("event-sum ordering violated: %v", sum)
	}
}

// The rack-scaling study must be deterministic run-to-run (the acceptance
// bar for the control plane: same seed => same moves, same detection
// times, same formatted table).
func TestRackScalingDeterministicQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ra := Get("rackscaling")(true)
	rb := Get("rackscaling")(true)
	a, b := Format(ra), Format(rb)
	if a != b {
		t.Errorf("rackscaling output differs between identical runs:\n%s\n---\n%s", a, b)
	}
	// Columns: config, IOhosts, kops/s, ratio W1, ratio W2, moves, rehomes,
	// detect. The no-controller cell must stay badly imbalanced in W2 while
	// the rebalanced 2-IOhost cell converges near 1.
	ratio := func(cell string) float64 {
		if cell == ">1000" {
			return 1001
		}
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", cell)
		}
		return v
	}
	if r := ratio(ra.Rows[0][4]); r < 10 {
		t.Errorf("static no-controller W2 ratio = %.1f, want >= 10:\n%s", r, a)
	}
	if r := ratio(ra.Rows[1][4]); r > 2 {
		t.Errorf("rebalanced W2 ratio = %.1f, want <= 2:\n%s", r, a)
	}
	if ra.Rows[1][5] == "0" {
		t.Errorf("rebalanced cell made no moves:\n%s", a)
	}
	if ra.Rows[4][6] == "0" || ra.Rows[4][7] == "-" {
		t.Errorf("crash cell missing rehomes or detection:\n%s", a)
	}
}

// Quick latency-shape check mirroring Figure 7's headline claims.
func TestFig7ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := fig7(true)
	get := func(row, col int) float64 {
		v, err := strconv.ParseFloat(res.Rows[row][col], 64)
		if err != nil {
			t.Fatalf("bad cell: %q", res.Rows[row][col])
		}
		return v
	}
	// Columns: VMs, baseline, vrio, elvis, optimum.
	optimum, elvis, vrio, base := get(0, 4), get(0, 3), get(0, 2), get(0, 1)
	if !(optimum < elvis && elvis < vrio && vrio <= base*1.2) {
		t.Errorf("N=1 ordering wrong: opt=%.1f elvis=%.1f vrio=%.1f base=%.1f",
			optimum, elvis, vrio, base)
	}
	gap := vrio - optimum
	if gap < 8 || gap > 18 {
		t.Errorf("vrio-optimum gap = %.1f, want ≈12", gap)
	}
}

// TestFailoverClaim: §4.6's fallback IOhost as a two-IOhost rack. The
// heartbeat detects the crash within its miss window, every guest lands on
// the idle IOhost 1, and post-failover RR throughput is back to at least
// 95% of the pre-failure phase (the phases are equally long).
func TestFailoverClaim(t *testing.T) {
	o := runFailover()
	if o.before == 0 {
		t.Fatal("no RR traffic before the crash")
	}
	if o.after*100 < o.before*95 {
		t.Errorf("after failover %d transactions, want >= 95%% of the %d before", o.after, o.before)
	}
	if o.detect <= o.crash || o.detect > o.bound {
		t.Errorf("detection at %v, want within (%v, %v]", o.detect, o.crash, o.bound)
	}
	if o.survivor != 1 || o.survivorMsgs == 0 {
		t.Errorf("survivor IOhost %d served %d msgs, want IOhost 1 serving traffic", o.survivor, o.survivorMsgs)
	}
}
