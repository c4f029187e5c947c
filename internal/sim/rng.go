package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**-style splitmix seeding). It is deliberately hand-rolled so
// results do not drift if the standard library's generators change, and so
// streams can be forked reproducibly per component.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Fork derives an independent stream, useful for giving each simulated
// component its own RNG so adding a component does not perturb the others.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform duration in [lo, hi].
func (r *RNG) Range(lo, hi Time) Time {
	if hi < lo {
		panic("sim: Range with hi < lo")
	}
	if hi == lo {
		return lo
	}
	return lo + Time(r.Uint64()%uint64(hi-lo+1))
}

// Exp returns an exponentially distributed duration with the given mean.
func (r *RNG) Exp(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	d := Time(-math.Log(u) * float64(mean))
	if d < 0 {
		d = 0
	}
	return d
}

// LogNormal returns a log-normally distributed size with the given mean and
// sigma of the underlying normal; used for file-size distributions
// (Filebench's Webserver personality draws 28 KB-mean file sizes this way).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return math.Exp(mu + sigma*z)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
