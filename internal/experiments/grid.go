package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Grid declares one experiment. Its cells are the product of Axes; each
// cell is one independent simulation (its own Testbed, engine and RNGs)
// that Cell turns into measured Lines, and the cells of every grid may run
// concurrently. Rows are keyed by every axis but the last Pivot ones,
// which are spread into columns; Cols render each row, reading other cells
// of the same row through Row.Get. Notes adds text computed from the run,
// and the closing "paper:" note is printed from Claims.
type Grid struct {
	ID, Title string
	Axes      []Axis
	Pivot     int
	Cell      func(quick bool, p Point) []Line
	Cols      []Col
	Notes     func(t *Table) []string
	Claims    []Claim
}

// Axis is one dimension of a grid: its name and the values it takes, which
// may differ in quick mode. Values are the labels the table prints.
type Axis struct {
	Name   string
	Values func(quick bool) []string
}

// axis is an Axis with the same values in every mode.
func axis(name string, values ...string) Axis {
	return Axis{name, func(bool) []string { return values }}
}

// upTo is an Axis counting 1..full, or 1..quick in quick mode.
func upTo(name string, full, quick int) Axis {
	return Axis{name, func(q bool) []string {
		n := full
		if q {
			n = quick
		}
		var v []string
		for i := 1; i <= n; i++ {
			v = append(v, strconv.Itoa(i))
		}
		return v
	}}
}

// Point is one cell's coordinates: a value per axis. As a claim's selector
// it names some of the axes, plus "line" for a Line's label.
type Point map[string]string

// Int reads a numeric axis value.
func (p Point) Int(axis string) int {
	n, _ := strconv.Atoi(p[axis])
	return n
}

// with returns a copy of p with the pairs of kv (axis, value, ...) set.
func (p Point) with(kv ...string) Point {
	q := Point{}
	for k, v := range p {
		q[k] = v
	}
	for i := 0; i+1 < len(kv); i += 2 {
		q[kv[i]] = kv[i+1]
	}
	return q
}

// Metrics is one measured row's named values.
type Metrics map[string]float64

// Line is one row a cell measured. Most cells measure one unlabelled row; a
// cell that observes several things in one run (each sidecore, each phase
// of a timeline, each hop of a traced flow) returns one labelled Line each.
type Line struct {
	Label string
	Metrics
}

// one is a cell's single row.
func one(m Metrics) []Line { return []Line{{Metrics: m}} }

// Col is one printed column: its header and how a row renders in it.
type Col struct {
	Name string
	F    func(r Row) string
}

// Table is one run of a Grid: its points and the Lines each cell wrote
// into its own slot of Out.
type Table struct {
	*Grid
	Points []Point
	Out    [][]Line
	index  map[string]int
	rows   []Row
}

func (g *Grid) plan(quick bool) *Table {
	t := &Table{Grid: g, Points: []Point{{}}, index: map[string]int{}}
	for _, a := range g.Axes {
		var next []Point
		for _, p := range t.Points {
			for _, v := range a.Values(quick) {
				next = append(next, p.with(a.Name, v))
			}
		}
		t.Points = next
	}
	for i, p := range t.Points {
		t.index[t.key(p, len(g.Axes))] = i
	}
	t.Out = make([][]Line, len(t.Points))
	return t
}

// key identifies p by its values on the first n axes.
func (t *Table) key(p Point, n int) string {
	var b strings.Builder
	for _, a := range t.Axes[:n] {
		b.WriteString(p[a.Name])
		b.WriteByte(0)
	}
	return b.String()
}

// Result renders the run as a printable table.
func (t *Table) Result() Result {
	res := Result{ID: t.ID, Title: t.Title}
	for _, c := range t.Cols {
		res.Header = append(res.Header, c.Name)
	}
	for _, r := range t.Rows() {
		var row []string
		for _, c := range t.Cols {
			row = append(row, c.F(r))
		}
		res.Rows = append(res.Rows, row)
	}
	if t.Notes != nil {
		res.Notes = append(res.Notes, t.Notes(t)...)
	}
	if len(t.Claims) > 0 {
		res.Notes = append(res.Notes, paperNote(t))
	}
	return res
}

// Rows lists the printed rows in point order: for each row key, one row
// per Line of its cells.
func (t *Table) Rows() []Row {
	if t.rows == nil {
		seen := map[string]bool{}
		for i, p := range t.Points {
			if k := t.key(p, len(t.Axes)-t.Pivot); !seen[k] {
				seen[k] = true
				for s := range t.Out[i] {
					t.rows = append(t.rows, Row{t: t, p: p, sub: s, i: len(t.rows)})
				}
			}
		}
	}
	return t.rows
}

// Row is one printed row: a row key and a Line index within its cells.
type Row struct {
	t      *Table
	p      Point
	sub, i int
}

// Axis returns the row's value on an axis.
func (r Row) Axis(name string) string { return r.p[name] }

// Label returns the label of the row's Line.
func (r Row) Label() string { return r.line().Label }

// Get reads a metric of the row's Line in the cell at the row's point,
// moved by at's axis/value pairs, e.g. Get("mean", "model", "vrio"). A
// metric the Line does not have reads NaN.
func (r Row) Get(metric string, at ...string) float64 {
	return r.line(at...).get(metric)
}

func (r Row) line(at ...string) Line { return r.t.cell(r.p.with(at...))[r.sub] }

// Get reads a metric of the first Line of the cell at p, which names a
// value on every axis; a missing metric reads NaN.
func (t *Table) Get(p Point, metric string) float64 { return t.cell(p)[0].get(metric) }

func (t *Table) cell(p Point) []Line {
	i, ok := t.index[t.key(p, len(t.Axes))]
	if !ok {
		panic(fmt.Sprintf("experiments: %s has no cell at %v", t.ID, p))
	}
	return t.Out[i]
}

func (m Metrics) get(name string) float64 {
	if v, ok := m[name]; ok {
		return v
	}
	return math.NaN()
}

// axisCol prints an axis value under the axis's name.
func axisCol(name string) Col {
	return Col{name, func(r Row) string { return r.Axis(name) }}
}

// labelCol prints the row's Line label.
func labelCol(name string) Col {
	return Col{name, func(r Row) string { return r.Label() }}
}

// num prints a metric with f, read from the cell moved by at.
func num(name, metric string, f func(float64) string, at ...string) Col {
	return Col{name, func(r Row) string { return f(r.Get(metric, at...)) }}
}

// vsFirst prints a metric's change relative to the first row; the first
// row itself prints first, and a row without the metric prints "-".
func vsFirst(name, metric, first string) Col {
	return Col{name, func(r Row) string {
		if r.i == 0 {
			return first
		}
		return orDash(pct)(r.Get(metric)/r.t.rows[0].Get(metric) - 1)
	}}
}

// orDash prints NaN, the mark of a value a row does not have, as "-".
func orDash(f func(float64) string) func(float64) string {
	return func(v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		return f(v)
	}
}

// lines returns a Notes function printing fixed text.
func lines(text ...string) func(*Table) []string {
	return func(*Table) []string { return text }
}
