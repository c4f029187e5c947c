package stats

import (
	"fmt"
	"slices"
	"strings"
)

// Counters is a set of named monotonically increasing counters, used for the
// Table 3 exit/interrupt accounting. The zero value is ready to use.
//
// Names and values live in two parallel slices kept sorted by name. Inc
// finds a name by a linear string comparison: a set holds about twenty
// names at most, all package constants, so the scan beats hashing, and a
// known name is incremented without allocating. A new name is inserted in order,
// which keeps Names and String free of sorting.
//
// Counters is NOT safe for concurrent use: Inc mutates the slices with no
// locking. This is deliberate — counters sit on the simulation hot path, and
// each simulation cell is single-threaded. The parallel experiment runner
// (experiments.RunAllParallel) keeps this sound by giving every cell its own
// engine, testbed, and Counters; results are combined with Merge only after
// the worker goroutines have been joined. Never share one Counters between
// cells, and never call Inc or Merge from more than one goroutine at a time.
type Counters struct {
	names []string
	vals  []uint64
}

// Inc adds delta to the named counter.
func (c *Counters) Inc(name string, delta uint64) {
	for i, n := range c.names {
		if n == name {
			c.vals[i] += delta
			return
		}
	}
	i, _ := slices.BinarySearch(c.names, name)
	c.names = slices.Insert(c.names, i, name)
	c.vals = slices.Insert(c.vals, i, delta)
}

// Get reads the named counter (0 if never incremented).
func (c *Counters) Get(name string) uint64 {
	for i, n := range c.names {
		if n == name {
			return c.vals[i]
		}
	}
	return 0
}

// Names returns the counter names in sorted order.
func (c *Counters) Names() []string {
	return append(make([]string, 0, len(c.names)), c.names...)
}

// Merge folds other's counters into c.
func (c *Counters) Merge(other *Counters) {
	for i, n := range other.names {
		c.Inc(n, other.vals[i])
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// String renders "name=value" pairs sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for i, n := range c.names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, c.vals[i])
	}
	return b.String()
}

// Series is a sampled time series: (t, value) points, used for the Figure 15
// CPU-utilization timelines.
type Series struct {
	T []int64
	V []float64
}

// Add appends a point. Timestamps should be nondecreasing.
func (s *Series) Add(t int64, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.T) }
