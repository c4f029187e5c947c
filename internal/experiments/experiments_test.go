package experiments

import (
	"math"
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
	have := map[string]bool{}
	for _, id := range IDs() {
		if have[id] {
			t.Errorf("experiment %q registered twice", id)
		}
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
	tab := run([]string{"table2", "fig1"}, true, 1)
	t2, f1 := tab[0], tab[1]
	for setup, want := range map[string]string{"R930 x 3": "-10%", "R930 x 6": "-13%"} {
		if got := pct(t2.Get(Point{"setup": setup}, "diff")); got != want {
			t.Errorf("table2 %s diff = %q, want %q", setup, got, want)
		}
	}
	for _, r := range f1.Rows() {
		above := r.Get("above diagonal")
		if r.Axis("kind") == "CPU" && above != 0 {
			t.Errorf("CPU pair %s not below the diagonal", r.Label())
		}
		if r.Axis("kind") == "NIC" && above != 1 {
			t.Errorf("NIC pair %s below the diagonal", r.Label())
		}
	}
}

// quickTable is experiment id's table from the shared serial quick run.
func quickTable(t *testing.T, id string) *Table {
	t.Helper()
	for _, tab := range quickRun() {
		if tab.ID == id {
			return tab
		}
	}
	t.Fatalf("quick run has no %s", id)
	return nil
}

// One quick end-to-end shape check: Table 3's measured event sums must
// reproduce the paper's ordering 2 <= 2 < 4 < 6 < 9.
func TestTable3ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tab := quickTable(t, "table3")
	sum := map[string]float64{}
	for _, m := range fig5Models {
		sum[m] = tab.Get(Point{"model": m}, "sum")
	}
	if !(sum["optimum"] < 3 && sum["vrio"] < 3) {
		t.Errorf("optimum/vrio sums too high: %v", sum)
	}
	if !(sum["vrio"] < sum["elvis"] && sum["elvis"] < sum["vrio-nopoll"] &&
		sum["vrio-nopoll"] < sum["baseline"]) {
		t.Errorf("event-sum ordering violated: %v", sum)
	}
}

// Quick latency-shape check mirroring Figure 7's headline claims.
func TestFig7ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tab := quickTable(t, "fig7")
	mean := func(model string) float64 { return tab.Get(Point{"VMs": "1", "model": model}, "mean") }
	optimum, elvis, vrio, base := mean("optimum"), mean("elvis"), mean("vrio"), mean("baseline")
	if !(optimum < elvis && elvis < vrio && vrio <= base*1.2) {
		t.Errorf("N=1 ordering wrong: opt=%.1f elvis=%.1f vrio=%.1f base=%.1f",
			optimum, elvis, vrio, base)
	}
	gap := vrio - optimum
	if gap < 8 || gap > 18 {
		t.Errorf("vrio-optimum gap = %.1f, want ≈12", gap)
	}
}

// The rack-scaling study must be deterministic run-to-run (the acceptance
// bar for the control plane: same seed => same moves, same detection
// times, same formatted table).
func TestRackScalingDeterministicQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tab := run([]string{"rackscaling"}, true, 1)[0]
	a, b := Format(tab.Result()), Format(Get("rackscaling")(true))
	if a != b {
		t.Errorf("rackscaling output differs between identical runs:\n%s\n---\n%s", a, b)
	}
	// The no-controller cell must stay badly imbalanced in W2 while the
	// rebalanced 2-IOhost cell converges near 1.
	at := func(config string) Point { return Point{"config": config} }
	if r := tab.Get(at("static"), "W2"); r < 10 {
		t.Errorf("static no-controller W2 ratio = %.1f, want >= 10:\n%s", r, a)
	}
	if r := tab.Get(at("rebalance"), "W2"); r > 2 {
		t.Errorf("rebalanced W2 ratio = %.1f, want <= 2:\n%s", r, a)
	}
	if tab.Get(at("rebalance"), "moves") == 0 {
		t.Errorf("rebalanced cell made no moves:\n%s", a)
	}
	if tab.Get(at("crash"), "rehomes") == 0 || math.IsNaN(tab.Get(at("crash"), "detect")) {
		t.Errorf("crash cell missing rehomes or detection:\n%s", a)
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
