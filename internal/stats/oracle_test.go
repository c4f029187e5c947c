package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// mapHistogram is the map-backed Histogram the dense one replaced, kept as
// the oracle: same bucketing (with the shift-loop leading-zero count), one
// map entry per non-empty bucket, percentiles by sorting bucket indexes.
type mapHistogram struct {
	counts map[int]uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

func loopLeadingZeros(v uint64) int {
	n := 0
	if v == 0 {
		return 64
	}
	for v&(1<<63) == 0 {
		v <<= 1
		n++
	}
	return n
}

func mapBucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSubBuckets {
		return int(v)
	}
	exp := 63 - loopLeadingZeros(uint64(v))
	sub := int((uint64(v) >> (uint(exp) - 5)) & (histSubBuckets - 1))
	return (exp-4)*histSubBuckets + sub
}

func (h *mapHistogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.counts == nil {
		h.counts = make(map[int]uint64)
		h.min = v
		h.max = v
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[mapBucketIndex(v)]++
	h.total++
	h.sum += float64(v)
}

func (h *mapHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

func (h *mapHistogram) Percentile(p float64) int64 {
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
	idxs := make([]int, 0, len(h.counts))
	for i := range h.counts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var cum uint64
	for _, i := range idxs {
		cum += h.counts[i]
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

func (h *mapHistogram) CountAbove(v int64) uint64 {
	if h.total == 0 || v >= h.max {
		return 0
	}
	cut := mapBucketIndex(v)
	var n uint64
	for i, c := range h.counts {
		if i > cut {
			n += c
		}
	}
	return n
}

func (h *mapHistogram) Reset() { *h = mapHistogram{} }

func (h *mapHistogram) Merge(other *mapHistogram) {
	if other == nil || other.total == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make(map[int]uint64)
		h.min = other.min
		h.max = other.max
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

func (h *mapHistogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p99=%d p999=%d max=%d",
		h.total, h.Mean(), h.Percentile(50), h.Percentile(99), h.Percentile(99.9), h.max)
}

// mapCounters is the map-backed Counters the slice one replaced.
type mapCounters struct{ m map[string]uint64 }

func (c *mapCounters) Inc(name string, delta uint64) {
	if c.m == nil {
		c.m = make(map[string]uint64)
	}
	c.m[name] += delta
}

func (c *mapCounters) Get(name string) uint64 { return c.m[name] }

func (c *mapCounters) Names() []string {
	names := make([]string, 0, len(c.m))
	for n := range c.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (c *mapCounters) Merge(other *mapCounters) {
	for n, v := range other.m {
		c.Inc(n, v)
	}
}

func (c *mapCounters) Reset() { c.m = nil }

func (c *mapCounters) String() string {
	var b strings.Builder
	for i, n := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, c.m[n])
	}
	return b.String()
}

// randValue draws latencies the way the simulator produces them — mostly
// small, some spanning every power of two up to 2^62, a few negative.
func randValue(rng *rand.Rand) int64 {
	switch rng.Intn(8) {
	case 0:
		return -rng.Int63n(1000)
	case 1, 2:
		return rng.Int63n(64)
	case 3:
		return rng.Int63() >> rng.Intn(63)
	default:
		return rng.Int63n(2_000_000)
	}
}

func TestBucketIndexMatchesShiftLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(v int64) {
		if got, want := bucketIndex(v), mapBucketIndex(v); got != want {
			t.Fatalf("bucketIndex(%d) = %d, shift loop gives %d", v, got, want)
		}
		if i := bucketIndex(v); i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d, beyond histBuckets %d", v, i, histBuckets)
		}
	}
	for e := 0; e < 63; e++ {
		p := int64(1) << e
		check(p - 1)
		check(p)
		check(p + 1)
	}
	check(math.MaxInt64)
	check(math.MinInt64)
	for i := 0; i < 100000; i++ {
		check(randValue(rng))
	}
}

// Property: random sequences of Record, Merge (self-merges included) and
// Reset over a few histograms leave every query answering exactly as the
// map-backed oracle does.
func TestHistogramMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 4
	var dense [n]Histogram
	var oracle [n]mapHistogram
	probes := []float64{-1, 0, 0.1, 1, 25, 50, 75, 90, 99, 99.9, 99.99, 100, 101}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(n)
		switch op := rng.Intn(100); {
		case op < 90:
			v := randValue(rng)
			dense[i].Record(v)
			oracle[i].Record(v)
		case op < 98:
			j := rng.Intn(n)
			dense[i].Merge(&dense[j])
			oracle[i].Merge(&oracle[j])
		default:
			dense[i].Reset()
			oracle[i].Reset()
		}
		if step%50 != 0 && step < 19990 {
			continue
		}
		for k := range dense {
			d, o := &dense[k], &oracle[k]
			if d.Count() != o.total || d.Min() != o.min || d.Max() != o.max || d.Mean() != o.Mean() {
				t.Fatalf("step %d hist %d: n/min/max/mean %d/%d/%d/%v, oracle %d/%d/%d/%v",
					step, k, d.Count(), d.Min(), d.Max(), d.Mean(), o.total, o.min, o.max, o.Mean())
			}
			for _, p := range probes {
				if got, want := d.Percentile(p), o.Percentile(p); got != want {
					t.Fatalf("step %d hist %d: Percentile(%v) = %d, oracle %d", step, k, p, got, want)
				}
			}
			for c := 0; c < 8; c++ {
				v := randValue(rng)
				if c == 0 {
					v = o.min
				}
				if got, want := d.CountAbove(v), o.CountAbove(v); got != want {
					t.Fatalf("step %d hist %d: CountAbove(%d) = %d, oracle %d", step, k, v, got, want)
				}
			}
			if got, want := d.String(), o.String(); got != want {
				t.Fatalf("step %d hist %d: String %q, oracle %q", step, k, got, want)
			}
		}
	}
}

// Property: random sequences of Inc, Merge (self-merges included) and Reset
// leave Get, Names and String exactly as the map-backed oracle has them.
func TestCountersMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := []string{"exits", "irq_injections", "msgs", "net_in", "a", "b", "", "zz", "copy_bytes", "exits_2"}
	const n = 3
	var slice [n]Counters
	var oracle [n]mapCounters
	for step := 0; step < 20000; step++ {
		i := rng.Intn(n)
		switch op := rng.Intn(100); {
		case op < 90:
			name := names[rng.Intn(len(names))]
			d := uint64(rng.Intn(3)) // zero deltas still create the name
			slice[i].Inc(name, d)
			oracle[i].Inc(name, d)
		case op < 98:
			j := rng.Intn(n)
			slice[i].Merge(&slice[j])
			oracle[i].Merge(&oracle[j])
		default:
			slice[i].Reset()
			oracle[i].Reset()
		}
		for k := range slice {
			s, o := &slice[k], &oracle[k]
			if got, want := s.Names(), o.Names(); !slices.Equal(got, want) {
				t.Fatalf("step %d set %d: Names %q, oracle %q", step, k, got, want)
			}
			for _, name := range names {
				if got, want := s.Get(name), o.Get(name); got != want {
					t.Fatalf("step %d set %d: Get(%q) = %d, oracle %d", step, k, name, got, want)
				}
			}
			if got, want := s.String(), o.String(); got != want {
				t.Fatalf("step %d set %d: String %q, oracle %q", step, k, got, want)
			}
		}
	}
}

// Names hands out a copy: the caller may sort or overwrite it without
// disturbing the set.
func TestCountersNamesIsACopy(t *testing.T) {
	var c Counters
	c.Inc("b", 1)
	c.Inc("a", 2)
	names := c.Names()
	names[0] = "zzz"
	if got := c.Names(); !slices.Equal(got, []string{"a", "b"}) {
		t.Errorf("Names after caller mutation = %q", got)
	}
	if c.Get("a") != 2 {
		t.Errorf("Get(a) = %d", c.Get("a"))
	}
}

// The per-packet operations must not allocate once warm: Record into a
// bucket range already grown, and Inc on a name already present.
func TestRecordAndIncZeroAlloc(t *testing.T) {
	var h Histogram
	h.Record(1 << 40) // grow the buckets past every value below
	var v int64
	if n := testing.AllocsPerRun(1000, func() {
		v = (v*7919 + 13) % 5_000_000
		h.Record(v)
	}); n != 0 {
		t.Errorf("warm Histogram.Record: %v allocs/op, want 0", n)
	}
	var c Counters
	for _, name := range []string{"exits", "irq_injections", "msgs", "net_in"} {
		c.Inc(name, 0)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Inc("net_in", 1) }); n != 0 {
		t.Errorf("Counters.Inc on a known name: %v allocs/op, want 0", n)
	}
}

// BenchmarkHistogramRecord records queue-wait-like values into a warm
// histogram, as every cpu.Core.Exec does.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	h.Record(1 << 40)
	v := int64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = (v*7919 + 13) % 5_000_000
		h.Record(v)
	}
}

// BenchmarkCountersInc cycles through a VM's Table 3 counter names, as
// its exits and interrupts do.
func BenchmarkCountersInc(b *testing.B) {
	var c Counters
	names := []string{"exits", "guest_irqs", "irq_injections", "host_irqs", "iohost_irqs"}
	for _, name := range names {
		c.Inc(name, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc(names[i%len(names)], 1)
	}
}
