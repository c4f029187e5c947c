package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Claim is one of the paper's statements about a grid, kept as data: the
// quick test checks it against the run, and the grid's "paper:" note is
// printed from it, so the note cannot drift from the check.
type Claim struct {
	// At selects the cells, and with "line" the Lines, the claim is about.
	// Axes it leaves out range over all their values.
	At Point
	// Vs, when set, compares each selected value with the same Line of the
	// cell whose point is the selected one with Vs's values put in; By says
	// how.
	Vs Point
	By By
	// Metric names the measured value.
	Metric string
	// Paper is the paper's value. Within checks are centred on it.
	Paper float64
	Check Check
	// Deviation numbers the EXPERIMENTS.md known deviation this claim
	// states: the paper's shape, which the model does not reproduce. Its
	// check must fail; once it passes, the deviation is gone.
	Deviation int
	// FullOnly marks a claim that only full-length runs can show.
	FullOnly bool
}

// By is how a claim compares its value a with the Vs cell's value b.
type By int

const (
	// Change is a/b − 1.
	Change By = iota + 1
	// Ratio is a/b.
	Ratio
	// Gap is a − b.
	Gap
)

// Check is the test a claim's values must pass. Build one with Band,
// Within, Rising, Falling, Ordered or Crosses.
type Check struct {
	kind   checkKind
	lo, hi float64
	axis   string
	order  []string
}

type checkKind int

const (
	band checkKind = iota
	within
	rising
	falling
	ordered
	crosses
)

// Band passes when every value lies in [lo, hi].
func Band(lo, hi float64) Check { return Check{kind: band, lo: lo, hi: hi} }

// Within passes when every value lies within tol of the claim's Paper value.
func Within(tol float64) Check { return Check{kind: within, lo: -tol, hi: tol} }

// Rising passes when the values, taken in point order along axis, grow
// strictly.
func Rising(axis string) Check { return Check{kind: rising, axis: axis} }

// Falling passes when the values, taken in point order along axis, shrink
// strictly.
func Falling(axis string) Check { return Check{kind: falling, axis: axis} }

// Ordered passes when the values at axis's listed values rise strictly in
// the order listed (compared cell by cell where At leaves other axes free).
func Ordered(axis string, values ...string) Check {
	return Check{kind: ordered, axis: axis, order: values}
}

// Crosses passes when the values, taken in point order along a numeric
// axis, start at or below zero and first turn positive at an axis value in
// [lo, hi]: a crossover of the At cells over the Vs cells, under By Gap.
func Crosses(axis string, lo, hi float64) Check {
	return Check{kind: crosses, axis: axis, lo: lo, hi: hi}
}

// values reads the claim's metric on every Line sel selects, in point
// order, compared with the Vs cell when the claim has one, with the
// points they came from.
func (c Claim) values(t *Table, sel Point) ([]float64, []Point, error) {
	var vals []float64
	var pts []Point
	for i, p := range t.Points {
		if !selects(sel, p) {
			continue
		}
		for s, l := range t.Out[i] {
			if sel["line"] != "" && l.Label != sel["line"] {
				continue
			}
			a, ok := l.Metrics[c.Metric]
			if !ok {
				return nil, nil, fmt.Errorf("%s has no metric %q", t.ID, c.Metric)
			}
			if c.Vs != nil {
				vs := p.with()
				for k, v := range c.Vs {
					vs[k] = v
				}
				j, ok := t.index[t.key(vs, len(t.Axes))]
				if !ok {
					return nil, nil, fmt.Errorf("%s has no cell at %v", t.ID, vs)
				}
				a = c.By.apply(a, t.Out[j][s].get(c.Metric))
			}
			vals = append(vals, a)
			pts = append(pts, p)
		}
	}
	if len(vals) == 0 {
		return nil, nil, fmt.Errorf("%s: %v selects nothing", t.ID, sel)
	}
	return vals, pts, nil
}

func selects(sel, p Point) bool {
	for k, v := range sel {
		if k != "line" && p[k] != v {
			return false
		}
	}
	return true
}

func (b By) apply(a, v float64) float64 {
	switch b {
	case Change:
		return a/v - 1
	case Ratio:
		return a / v
	case Gap:
		return a - v
	}
	return a
}

// Eval checks the claim against a run of its grid. It returns the values
// it read and whether the check passed; err reports a claim that names
// nothing in the table.
func (c Claim) Eval(t *Table) (vals []float64, pass bool, err error) {
	ck := c.Check
	if ck.kind == ordered {
		var prev []float64
		pass = true
		for _, v := range ck.order {
			cur, _, err := c.values(t, c.At.with(ck.axis, v))
			if err != nil {
				return nil, false, err
			}
			if prev != nil && len(cur) != len(prev) {
				return nil, false, fmt.Errorf("%s: ordered cells differ in count", t.ID)
			}
			for j := range prev {
				pass = pass && prev[j] < cur[j]
			}
			vals, prev = append(vals, cur...), cur
		}
		return vals, pass, nil
	}
	vals, pts, err := c.values(t, c.At)
	if err != nil {
		return nil, false, err
	}
	pass = true
	switch ck.kind {
	case band, within:
		lo, hi := ck.lo, ck.hi
		if ck.kind == within {
			lo, hi = c.Paper+lo, c.Paper+hi
		}
		for _, v := range vals {
			pass = pass && v >= lo && v <= hi
		}
	case rising, falling:
		for j := 1; j < len(vals); j++ {
			pass = pass && (ck.kind == rising && vals[j] > vals[j-1] || ck.kind == falling && vals[j] < vals[j-1])
		}
	case crosses:
		pass = false
		for j, v := range vals {
			if v > 0 {
				x, _ := strconv.ParseFloat(pts[j][ck.axis], 64)
				pass = j > 0 && x >= ck.lo && x <= ck.hi
				break
			}
		}
	}
	return vals, pass, nil
}

// describe states the claim as the paper note prints it, naming selector
// values in axes order.
func (c Claim) describe(axes []Axis) string {
	s := subject(c.At, axes)
	if c.Vs != nil {
		s += " vs " + subject(c.Vs, axes)
	}
	s = strings.TrimSpace(s + " " + c.Metric)
	switch ck := c.Check; ck.kind {
	case band, within:
		switch c.By {
		case Change:
			s += " " + pct(c.Paper)
		case Ratio:
			s += fmt.Sprintf(" %gx", c.Paper)
		default:
			s += fmt.Sprintf(" %g", c.Paper)
		}
	case rising:
		s += " rises with " + ck.axis
	case falling:
		s += " falls with " + ck.axis
	case ordered:
		s += " by " + ck.axis + ": " + strings.Join(ck.order, " < ")
	case crosses:
		s += fmt.Sprintf(" turns positive near %s=%g", ck.axis, c.Paper)
	}
	if c.Deviation > 0 {
		s += fmt.Sprintf(" (deviation %d)", c.Deviation)
	}
	if c.FullOnly {
		s += " (full run)"
	}
	return s
}

// subject names a selector's values in axes order, then its line, as
// "axis=value" where the value alone would be a bare number.
func subject(sel Point, axes []Axis) string {
	var parts []string
	for _, a := range append(axes, Axis{Name: "line"}) {
		if v, ok := sel[a.Name]; ok {
			if _, err := strconv.ParseFloat(v, 64); err == nil {
				v = a.Name + "=" + v
			}
			parts = append(parts, v)
		}
	}
	return strings.Join(parts, " ")
}

func paperNote(t *Table) string {
	var parts []string
	for _, c := range t.Claims {
		parts = append(parts, c.describe(t.Axes))
	}
	return "paper: " + strings.Join(parts, "; ")
}
