package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"vrio/internal/sim"
	"vrio/internal/stats"
)

// Registry is the per-component metrics registry: named gauges and
// histograms registered under "component/name". Components register at
// build time (cluster.Build wires one registry per testbed); experiments
// read values by name instead of reaching into component counter fields,
// and a Timeseries samples every metric at sim-time intervals via
// Engine.Ticker.
//
// Snapshots walk metrics in sorted full-name order, so sampled output is
// deterministic regardless of registration order. Like the rest of a
// simulation cell, a Registry is single-threaded by design.
type Registry struct {
	metrics []*Metric
	index   map[metricKey]*Metric
}

// metricKey indexes a metric by its two name parts, so neither registering
// nor looking one up builds its full name.
type metricKey struct{ component, name string }

// Metric is one registered metric. A gauge reads a component's existing
// state through a closure at snapshot time (so instrumenting a component
// costs nothing on its hot path); a histogram metric wraps a
// stats.Histogram and reports its p99 as the snapshot value.
type Metric struct {
	Component string
	Name      string

	gauge func() float64
	hist  *stats.Histogram
}

// FullName is "component/name", the export column name.
func (m *Metric) FullName() string { return m.Component + "/" + m.Name }

// fullNameLess orders a before b by FullName without building either.
func fullNameLess(a, b *Metric) bool {
	if a.Component == b.Component {
		return a.Name < b.Name
	}
	la, lb := len(a.Component)+1+len(a.Name), len(b.Component)+1+len(b.Name)
	for i := 0; i < la && i < lb; i++ {
		if x, y := a.fullNameByte(i), b.fullNameByte(i); x != y {
			return x < y
		}
	}
	return la < lb
}

// fullNameByte is FullName()[i].
func (m *Metric) fullNameByte(i int) byte {
	switch {
	case i < len(m.Component):
		return m.Component[i]
	case i == len(m.Component):
		return '/'
	}
	return m.Name[i-len(m.Component)-1]
}

// Value reads the metric's current snapshot value.
func (m *Metric) Value() float64 {
	if m.hist != nil {
		return float64(m.hist.Percentile(99))
	}
	return m.gauge()
}

// Hist exposes the underlying histogram of a histogram metric (nil for a
// gauge), for percentile queries beyond the snapshot p99.
func (m *Metric) Hist() *stats.Histogram { return m.hist }

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[metricKey]*Metric)}
}

func (r *Registry) add(m *Metric) *Metric {
	key := metricKey{m.Component, m.Name}
	if _, dup := r.index[key]; dup {
		panic("trace: duplicate metric " + m.FullName())
	}
	r.index[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Gauge registers a gauge read through fn at snapshot time.
func (r *Registry) Gauge(component, name string, fn func() float64) *Metric {
	return r.add(&Metric{Component: component, Name: name, gauge: fn})
}

// PercentileGauge registers a gauge that reads one percentile of an
// existing histogram in microseconds at snapshot time — a tail-latency
// column for a timeseries without copying the histogram per sample.
func (r *Registry) PercentileGauge(component, name string, h *stats.Histogram, p float64) *Metric {
	return r.Gauge(component, name, func() float64 { return float64(h.Percentile(p)) / 1e3 })
}

// Histogram registers a fresh histogram and returns it for recording.
func (r *Registry) Histogram(component, name string) *stats.Histogram {
	h := &stats.Histogram{}
	r.add(&Metric{Component: component, Name: name, hist: h})
	return h
}

// ObserveHistogram registers an existing component histogram (e.g. a load
// generator's latency histogram) without copying it.
func (r *Registry) ObserveHistogram(component, name string, h *stats.Histogram) *Metric {
	return r.add(&Metric{Component: component, Name: name, hist: h})
}

// Get returns the metric registered under component/name, or nil.
func (r *Registry) Get(component, name string) *Metric {
	return r.index[metricKey{component, name}]
}

// Value reads component/name's current value (0 if not registered, so
// experiments can read model-specific metrics uniformly).
func (r *Registry) Value(component, name string) float64 {
	m := r.index[metricKey{component, name}]
	if m == nil {
		return 0
	}
	return m.Value()
}

// Sample is one metric's value at snapshot time.
type Sample struct {
	Component string
	Name      string
	Value     float64
}

// Snapshot reads every metric, sorted by full name.
func (r *Registry) Snapshot() []Sample {
	out := make([]Sample, 0, len(r.metrics))
	for _, m := range r.sorted() {
		out = append(out, Sample{Component: m.Component, Name: m.Name, Value: m.Value()})
	}
	return out
}

func (r *Registry) sorted() []*Metric {
	ms := append([]*Metric{}, r.metrics...)
	sort.Slice(ms, func(i, j int) bool { return fullNameLess(ms[i], ms[j]) })
	return ms
}

// Timeseries is a sim-time series of registry snapshots: one row of values
// (in Names order) per Sample call. Metrics registered after NewTimeseries
// are not picked up — register everything at build time.
type Timeseries struct {
	Names []string // sorted full names; the row schema
	T     []sim.Time
	Rows  [][]float64

	cols []*Metric
}

// NewTimeseries fixes the column schema from the current registrations.
func (r *Registry) NewTimeseries() *Timeseries {
	return r.NewTimeseriesFiltered(nil)
}

// NewTimeseriesFiltered fixes a schema over the subset of current
// registrations keep accepts (nil keeps everything). The datacenter rollup
// uses it to sample each rack's fabric-relevant metrics without dragging
// every per-VM counter into the fabric-wide snapshot stream.
func (r *Registry) NewTimeseriesFiltered(keep func(component, name string) bool) *Timeseries {
	ts := &Timeseries{}
	for _, m := range r.sorted() {
		if keep != nil && !keep(m.Component, m.Name) {
			continue
		}
		ts.cols = append(ts.cols, m)
		ts.Names = append(ts.Names, m.FullName())
	}
	return ts
}

// Sample appends one row at sim-time now.
func (ts *Timeseries) Sample(now sim.Time) {
	row := make([]float64, len(ts.cols))
	for i, m := range ts.cols {
		row[i] = m.Value()
	}
	ts.T = append(ts.T, now)
	ts.Rows = append(ts.Rows, row)
}

// WriteJSONL emits one JSON object per sample tick: the sim timestamp plus
// every metric keyed by full name, in schema order. Values are formatted
// with strconv (shortest round-trip form), deterministic for identical
// inputs.
func (ts *Timeseries) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, t := range ts.T {
		fmt.Fprintf(bw, `{"t":%d`, int64(t))
		for j, name := range ts.Names {
			fmt.Fprintf(bw, ",%q:%s", name, strconv.FormatFloat(ts.Rows[i][j], 'g', -1, 64))
		}
		if _, err := bw.WriteString("}\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
