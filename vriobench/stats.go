package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

func sortedCopy(vals []float64) []float64 {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	return d
}

// median is the middle value (the mean of the two middles for even counts).
func median(vals []float64) float64 {
	d := sortedCopy(vals)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// quartiles returns the three cut points of vals exactly as Python's
// statistics.quantiles(vals, n=4) computes them (the "exclusive" method).
func quartiles(vals []float64) [3]float64 {
	d := sortedCopy(vals)
	n := len(d)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// ledger audits per-operation completion counts, the exactly-once check:
// dup counts extra completions of one operation, lost counts operations
// that never completed.
func ledger(counts []uint8) (ops, dup, lost uint64) {
	for _, n := range counts {
		switch {
		case n == 0:
			lost++
		case n > 1:
			dup += uint64(n - 1)
		}
	}
	return uint64(len(counts)), dup, lost
}

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// latencySummary is a latency distribution in µs: median and tail, with
// the sample count they rest on.
type latencySummary struct {
	P50, P99 float64
	N        int
}

func summarize(ns []int64) latencySummary {
	d := append([]int64(nil), ns...)
	sortInt64(d)
	return latencySummary{
		P50: float64(percentile(d, 50)) / 1e3,
		P99: float64(percentile(d, 99)) / 1e3,
		N:   len(d),
	}
}

// allocMeter measures heap bytes allocated between start and stop
// (runtime.MemStats.TotalAlloc), which counts every allocation whether or
// not a collection has freed it since.
type allocMeter struct{ before uint64 }

func (a *allocMeter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.before = ms.TotalAlloc
}

func (a *allocMeter) stopMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-a.before) / 1e6
}

// Host speed on shared machines drifts by tens of percent within seconds,
// and every wall-clock metric drifts with it. The benchmark therefore
// reports wall-clock metrics in reference seconds: a measured duration d is
// reported as d × refNominal / r, where r is the time of a fixed reference
// loop measured in the same process right around the measured work. The
// loop uses only the standard library (map updates, appends, a sort), so a
// change to the program cannot speed it up; what it tracks is the host.
// The raw seconds and r are kept in the report and in results.jsonl.

// refNominal is the reference loop's typical time on the host the
// benchmark was defined on (a 2-vCPU Intel Xeon VM), so reference seconds
// read close to that host's wall seconds.
const refNominal = 0.004

var refSink atomic.Int64

func refLoop() float64 {
	t := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	m := make(map[uint64]int, 1024)
	s := make([]uint64, 0, 1<<14)
	for i := 0; i < 1<<14; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x&0x3fff] += i
		s = append(s, x)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	refSink.Add(int64(len(m)) + int64(s[0]&1))
	return time.Since(t).Seconds()
}

// refClock takes a reference between consecutive pieces of measured work,
// and scales each piece by the mean of the references on either side: the
// host's speed swings last about a second, so references only a round
// apart miss them.
type refClock struct {
	cpus int
	last float64
}

// newRefClock takes the first reference. Work spread over cpus CPUs gets
// a reference run on as many goroutines at once, which also slows when
// only one of those CPUs does.
func newRefClock(cpus int) *refClock {
	c := &refClock{cpus: cpus}
	c.last = c.loop()
	return c
}

// loop times the reference: the median of three loops, or on several
// CPUs, three loops on each at once, per loop.
func (c *refClock) loop() float64 {
	if c.cpus <= 1 {
		return median([]float64{refLoop(), refLoop(), refLoop()})
	}
	t := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < c.cpus; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				refLoop()
			}
		}()
	}
	wg.Wait()
	return time.Since(t).Seconds() / 3
}

// mark takes a reference and returns its mean with the previous one: the
// reference for the work done between the two.
func (c *refClock) mark() float64 {
	now := c.loop()
	ref := (c.last + now) / 2
	c.last = now
	return ref
}

// refSeconds converts d, measured while the reference loop took ref, into
// reference seconds.
func refSeconds(d, ref float64) float64 { return d * refNominal / ref }
