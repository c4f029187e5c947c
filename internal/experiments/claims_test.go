package experiments

import (
	"fmt"
	"math"
	"testing"
)

// verdict is nil when a claim's check comes out as it should: a claim must
// hold, and a Deviation claim, which states the paper's shape where the
// model departs from it, must keep failing.
func verdict(tab *Table, c Claim) error {
	vals, pass, err := c.Eval(tab)
	switch {
	case err != nil:
		return err
	case c.Deviation == 0 && !pass:
		return fmt.Errorf("%s: claim %q fails on %v", tab.ID, c.describe(tab.Axes), vals)
	case c.Deviation > 0 && pass:
		return fmt.Errorf("%s: deviation %d is gone, claim %q holds on %v: update EXPERIMENTS.md's known deviations",
			tab.ID, c.Deviation, c.describe(tab.Axes), vals)
	}
	return nil
}

// TestClaimsQuick checks every claim a quick run can show against the
// serial quick run the golden test also uses.
func TestClaimsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, tab := range quickRun() {
		for _, c := range tab.Claims {
			if c.FullOnly {
				continue
			}
			if err := verdict(tab, c); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestClaimsSelectFullRunCells: every claim, full-only ones included, names
// axes and values that exist in its grid's full-length plan, and every
// known deviation of EXPERIMENTS.md has a claim stating it.
func TestClaimsSelectFullRunCells(t *testing.T) {
	deviations := map[int]bool{}
	for _, g := range grids {
		tab := g.plan(false)
		for _, c := range g.Claims {
			deviations[c.Deviation] = true
			sels := []Point{c.At.with(), c.At.with()}
			for k, v := range c.Vs {
				sels[1][k] = v
			}
			for _, v := range c.Check.order {
				sels = append(sels, c.At.with(c.Check.axis, v))
			}
			for _, sel := range sels {
				found := false
				for _, p := range tab.Points {
					found = found || selects(sel, p)
				}
				if !found {
					t.Errorf("%s: claim %q selects no full-run cell at %v", g.ID, c.describe(g.Axes), sel)
				}
			}
		}
	}
	for n := 1; n <= 5; n++ {
		if !deviations[n] {
			t.Errorf("known deviation %d has no claim", n)
		}
	}
}

// TestClaimChecks runs every check kind, and the deviation rule, over a
// synthetic grid: x = 1..3 by series a (1, 2, 3) and b (2, 2, 1).
func TestClaimChecks(t *testing.T) {
	tab := (&Grid{ID: "synthetic", Axes: []Axis{axis("x", "1", "2", "3"), axis("s", "a", "b")}}).plan(true)
	series := map[string][]float64{"a": {1, 2, 3}, "b": {2, 2, 1}}
	for i, p := range tab.Points {
		tab.Out[i] = one(Metrics{"v": series[p["s"]][p.Int("x")-1]})
	}
	a, b := Point{"s": "a"}, Point{"s": "b"}
	for _, tc := range []struct {
		c    Claim
		pass bool
	}{
		{Claim{At: Point{"x": "2", "s": "a"}, Metric: "v", Paper: 2.5, Check: Within(0.5)}, true},
		{Claim{At: Point{"x": "2", "s": "a"}, Metric: "v", Paper: 2.5, Check: Within(0.4)}, false},
		{Claim{At: a, Metric: "v", Check: Band(1, 3)}, true},
		{Claim{At: a, Metric: "v", Check: Band(1.5, 3)}, false},
		{Claim{At: a, Metric: "v", Check: Rising("x")}, true},
		{Claim{At: b, Metric: "v", Check: Rising("x")}, false},
		{Claim{At: a, Metric: "v", Check: Falling("x")}, false},
		{Claim{At: b, Metric: "v", Check: Falling("x")}, false}, // 2, 2 is flat
		{Claim{At: Point{"x": "1"}, Metric: "v", Check: Ordered("s", "a", "b")}, true},
		{Claim{Metric: "v", Check: Ordered("s", "a", "b")}, false}, // fails at x=2 and x=3
		{Claim{At: Point{"x": "3"}, Metric: "v", Check: Ordered("s", "b", "a")}, true},
		{Claim{At: a, Vs: b, By: Gap, Metric: "v", Check: Crosses("x", 3, 3)}, true},
		{Claim{At: a, Vs: b, By: Gap, Metric: "v", Check: Crosses("x", 1, 2)}, false},
		{Claim{At: b, Vs: a, By: Gap, Metric: "v", Check: Crosses("x", 1, 3)}, false}, // never turns positive
		{Claim{At: Point{"x": "3", "s": "a"}, Vs: b, By: Ratio, Metric: "v", Paper: 3, Check: Within(0)}, true},
		{Claim{At: Point{"x": "1", "s": "a"}, Vs: b, By: Change, Metric: "v", Paper: -0.5, Check: Within(0)}, true},
	} {
		if _, pass, err := tc.c.Eval(tab); err != nil || pass != tc.pass {
			t.Errorf("claim %q: pass=%v err=%v, want pass=%v", tc.c.describe(tab.Axes), pass, err, tc.pass)
		}
	}

	// A deviation row states a shape the model does not reproduce: it is
	// satisfied while the check fails, and fails once the shape holds.
	dev := Claim{At: Point{"x": "3"}, Metric: "v", Check: Ordered("s", "a", "b"), Deviation: 1}
	if err := verdict(tab, dev); err != nil {
		t.Errorf("deviation with its shape absent: %v", err)
	}
	dev.Check = Ordered("s", "b", "a")
	if verdict(tab, dev) == nil {
		t.Error("deviation whose shape holds passed; it must fail so EXPERIMENTS.md is updated")
	}

	// A claim naming nothing is an error, never a silent pass.
	for _, c := range []Claim{
		{At: a, Metric: "nope", Check: Band(0, 9)},
		{At: Point{"x": "9"}, Metric: "v", Check: Band(0, 9)},
		{At: Point{"line": "nope"}, Metric: "v", Check: Band(0, 9)},
	} {
		if _, _, err := c.Eval(tab); err == nil {
			t.Errorf("claim %q named nothing but evaluated", c.describe(tab.Axes))
		}
	}
	// NaN, a value the run did not measure, passes no band or trend.
	tab.Out[2] = one(Metrics{"v": math.NaN()})
	for _, c := range []Claim{{At: Point{"x": "2", "s": "a"}, Metric: "v", Check: Band(-9, 9)},
		{At: a, Metric: "v", Check: Rising("x")}, {At: a, Metric: "v", Check: Falling("x")}} {
		if _, pass, _ := c.Eval(tab); pass {
			t.Errorf("claim %q passed on NaN", c.describe(tab.Axes))
		}
	}
}
