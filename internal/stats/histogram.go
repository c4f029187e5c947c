// Package stats provides the measurement primitives used across the vRIO
// reproduction: log-bucketed latency histograms with percentile queries
// (Table 4), named counters (Table 3), and time-series samplers (Figure 15).
//
// Histogram.Record and Counters.Inc run for every exit, interrupt and
// sidecore work item a simulated packet causes, so both are hash-free and,
// once warm, allocation-free: histogram buckets are a dense slice indexed by
// bucket number, and counters are a short slice of names matched by string
// comparison.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram is a log-linear latency histogram, HDR-style: values are bucketed
// with bounded relative error (~1/32) so tail percentiles up to 100% stay
// accurate without storing every sample. Values are int64 (the reproduction
// records nanoseconds). The zero value is ready to use.
//
// Counts live in a dense slice indexed by bucket and grown on demand to the
// highest bucket recorded, so a warm Record neither hashes nor allocates.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

const (
	histSubBuckets = 32 // per power of two; relative error <= 1/32
	// histBuckets bounds bucketIndex, whose largest result (top bit 62)
	// is (62-4)*32+31 = 1887.
	histBuckets = 60 * histSubBuckets
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSubBuckets {
		return int(v)
	}
	// Position of the highest set bit.
	exp := 63 - bits.LeadingZeros64(uint64(v))
	// Top 5 bits below the leading bit select the sub-bucket.
	sub := int((uint64(v) >> (uint(exp) - 5)) & (histSubBuckets - 1))
	return (exp-4)*histSubBuckets + sub
}

// bucketLow returns the smallest value mapping to bucket i (inverse of
// bucketIndex, used to report percentile values).
func bucketLow(i int) int64 {
	if i < histSubBuckets {
		return int64(i)
	}
	exp := i/histSubBuckets + 4
	sub := i % histSubBuckets
	return (1 << uint(exp)) | (int64(sub) << uint(exp-5))
}

// grow makes bucket i addressable. Capacity at least doubles, capped at
// histBuckets. The slice never shrinks, so counts[len:cap] was never written
// and the buckets grow exposes start empty.
func (h *Histogram) grow(i int) {
	if i >= cap(h.counts) {
		counts := make([]uint64, len(h.counts), min(max(2*cap(h.counts), i+1), histBuckets))
		copy(counts, h.counts)
		h.counts = counts
	}
	h.counts = h.counts[:i+1]
}

// Record adds one observation. Negative values are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.total == 0 {
		h.min = v
		h.max = v
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	i := bucketIndex(v)
	if i >= len(h.counts) {
		h.grow(i)
	}
	h.counts[i]++
	h.total++
	h.sum += float64(v)
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean reports the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Percentiles reports the values at several percentiles in one call —
// the p50/p95/p99 row of a latency report.
func (h *Histogram) Percentiles(ps ...float64) []int64 {
	out := make([]int64, len(ps))
	for i, p := range ps {
		out[i] = h.Percentile(p)
	}
	return out
}

// Max reports the largest observation, or 0 with none.
func (h *Histogram) Max() int64 { return h.max }

// Percentile reports the value at percentile p in [0,100]. p=100 returns the
// exact maximum. With no observations it returns 0.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p >= 100 {
		return h.max
	}
	if p < 0 {
		p = 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// CountAbove reports how many observations exceeded v — the SLO-burn query:
// v is the latency objective, the return value the number of violating
// requests. Buckets straddling v are charged entirely to the burn (a
// conservative overcount bounded by the histogram's ~1/32 relative error).
func (h *Histogram) CountAbove(v int64) uint64 {
	if h.total == 0 {
		return 0
	}
	if v >= h.max {
		return 0
	}
	var n uint64
	for _, c := range h.counts[min(bucketIndex(v)+1, len(h.counts)):] {
		n += c
	}
	return n
}

// Reset discards all observations.
func (h *Histogram) Reset() { *h = Histogram{} }

// Merge folds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if h.total == 0 {
		h.min = other.min
		h.max = other.max
	}
	if n := len(other.counts); n > len(h.counts) {
		h.grow(n - 1)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p99=%d p999=%d max=%d",
		h.total, h.Mean(), h.Percentile(50), h.Percentile(99), h.Percentile(99.9), h.max)
}
