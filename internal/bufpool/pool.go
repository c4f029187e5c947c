// Package bufpool provides the zero-allocation buffer discipline of the
// datapath: size-classed free lists of byte slabs, plus a leased Frame type
// for a received buffer viewed past its slab's head.
//
// A Pool is deliberately NOT safe for concurrent use, exactly like
// stats.Counters: each simulation cell is single-threaded, and the parallel
// experiment runner gives every cell its own engine, testbed, and pool.
// Never share one Pool between cells. The contract is exercised under the
// race detector by the pool stress tests.
//
// Real-wire mode keeps the same rule with a different cell boundary: each
// netwire.Loop goroutine is one cell owning one pool (the loadgen gives
// every worker its own loop, pool, and driver). Socket reader goroutines
// never touch a pool — they circulate private scratch buffers and the loop
// copies each frame into a pool slab before the transport sees it.
//
// Two ownership styles coexist, chosen by lifetime shape:
//
//   - GetRaw/PutRaw loans: a plain []byte slab with a single owner at any
//     moment. Ownership transfers by convention (documented per call site);
//     PutRaw adopts any slab whose capacity is exactly a class size, so
//     buffers circulate freely between the pools of communicating
//     components. Dropping a loan on an error path is always safe — the
//     slab just falls back to the garbage collector.
//
//   - Wrap/Frame leases: a *Frame whose view starts past the slab's head (a
//     received transport message, viewed past its frame's headers; a block
//     request held by the storage backend). The lease has one owner at a
//     time; its Release recycles both slab and Frame, and a second Release
//     panics.
package bufpool

import "math/bits"

// Size classes are the powers of two from 64 B to 128 KiB, plus one class
// between 4 KiB and 8 KiB for a page of data behind its headers:
//
//   - 64 B–2 KiB: block request headers, statuses, Ethernet frames and
//     ring segments;
//   - 4 KiB: a page of block data on its own (a read's data, a write's
//     payload);
//   - PageFrameSize (4 KiB + 128 B): a wire frame that carries a 4 KiB block
//     payload and its Ethernet, encapsulation, transport and block headers
//     or reply status (a vRIO write request or read reply, a volume write
//     or read: 4179 to 4210 B), which would otherwise leave half of an
//     8 KiB slab unused;
//   - 8–16 KiB: jumbo TSO fragments;
//   - 64–128 KiB: full 64 KiB transport messages plus headers.
const (
	minClassShift = 6  // 64 B
	maxClassShift = 17 // 128 KiB
	numClasses    = maxClassShift - minClassShift + 2

	// pageClass is the index of the 4 KiB class; PageFrameSize's class
	// follows it, and the classes above are shifted up by one.
	pageClass = 12 - minClassShift

	// PageFrameSize is the capacity of the page-plus-headers class: a 4 KiB
	// payload and up to 128 B of headers.
	PageFrameSize = 1<<12 + 128

	// MaxPooled is the largest pooled buffer; bigger requests fall through
	// to the allocator.
	MaxPooled = 1 << maxClassShift

	// defaultClassCap bounds retained slabs per class so a burst cannot pin
	// memory forever: 256 slabs of 128 KiB is 32 MiB worst case per pool.
	defaultClassCap = 256
)

// classFor returns the class index for a buffer of n bytes, or -1 when n
// exceeds the largest class: the bit length of (n-1)/64, since power-of-two
// class c holds sizes up to 64<<c, moved up past PageFrameSize's class when
// n does not fit it.
func classFor(n int) int {
	if n > MaxPooled {
		return -1
	}
	c := bits.Len(uint(max(n, 1)-1) >> minClassShift)
	if n > PageFrameSize {
		c++
	}
	return c
}

// classSize is the slab capacity of class c.
func classSize(c int) int {
	switch {
	case c <= pageClass:
		return 1 << (minClassShift + c)
	case c == pageClass+1:
		return PageFrameSize
	}
	return 1 << (minClassShift + c - 1)
}

// Stats counts pool traffic, for tests and the memory-profile narrative.
type Stats struct {
	// Gets/Puts count raw-loan traffic (a Frame's Release included).
	Gets, Puts uint64
	// Misses counts Gets served by the allocator (empty class or oversize).
	Misses uint64
	// Adopted counts foreign slabs accepted by PutRaw; Dropped counts
	// buffers PutRaw declined (odd capacity, or a full class).
	Adopted, Dropped uint64
}

// Pool is one simulation cell's buffer pool. The zero value is NOT ready;
// use New.
type Pool struct {
	classes  [numClasses][][]byte
	frames   *List[Frame]
	classCap int
	// pooled marks, by address, the slabs in the class lists (race builds
	// only; see check.go).
	pooled map[uintptr]bool

	// Stats is exported for tests and profiling narratives.
	Stats Stats
}

// New returns an empty pool.
func New() *Pool {
	p := &Pool{classCap: defaultClassCap}
	p.frames = NewList("bufpool frames", func() *Frame { return &Frame{pool: p} })
	if RaceEnabled {
		p.pooled = make(map[uintptr]bool)
	}
	return p
}

// GetRaw returns a slab of length n whose capacity is the exact class size
// (or exactly n when n exceeds MaxPooled). The caller owns it until PutRaw
// or abandonment.
func (p *Pool) GetRaw(n int) []byte {
	p.Stats.Gets++
	c := classFor(n)
	if c < 0 {
		p.Stats.Misses++
		return make([]byte, n)
	}
	if free := p.classes[c]; len(free) > 0 {
		b := free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
		if RaceEnabled {
			p.checkPoison(b)
		}
		return b[:n]
	}
	p.Stats.Misses++
	return make([]byte, n, classSize(c))
}

// Clone copies b into a slab of its own from the pool: the way a borrower
// keeps bytes past the call that lent them, and the way one frame reaches
// several receivers that each release what they are given.
func (p *Pool) Clone(b []byte) []byte { return append(p.GetRaw(len(b))[:0], b...) }

// PutRaw returns a slab to the pool. Only slabs whose capacity is exactly a
// class size are adopted (this is how buffers allocated by a peer's pool —
// or by this one — are recognized); anything else is declined and left to
// the garbage collector. It reports whether the slab was adopted.
func (p *Pool) PutRaw(b []byte) bool {
	p.Stats.Puts++
	c := cap(b)
	if c == 0 {
		p.Stats.Dropped++
		return false
	}
	cls := classFor(c)
	if cls < 0 || classSize(cls) != c || len(p.classes[cls]) >= p.classCap {
		p.Stats.Dropped++
		return false
	}
	if RaceEnabled {
		p.poison(b)
	}
	p.classes[cls] = append(p.classes[cls], b[:0])
	p.Stats.Adopted++
	return true
}

// Frame is a leased buffer with one owner at a time. B is the valid byte
// view; the backing slab (which may be larger, or start before B when the
// frame wraps an offset view) returns to the pool on Release.
type Frame struct {
	// B is the leased bytes. Valid only while the lease is live.
	B []byte

	pool *Pool
	slab []byte
	live bool // from Wrap to Release
}

// Wrap leases a frame whose view is a slice of an existing slab — e.g. a
// message payload behind a transport header. The whole slab is recycled on
// Release, so the caller transfers ownership of slab here.
func (p *Pool) Wrap(slab, view []byte) *Frame {
	f := p.frames.Get()
	f.slab, f.B, f.live = slab, view, true
	return f
}

// Release ends the lease: it invalidates B and recycles slab and Frame;
// touching either afterwards is a use-after-free, and a second Release
// panics. Safe on a nil frame (error paths can release unconditionally).
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if !f.live {
		panic("bufpool: Release of a released frame")
	}
	f.live = false
	p := f.pool
	if f.slab != nil {
		p.PutRaw(f.slab[:cap(f.slab)])
	}
	f.slab = nil
	f.B = nil
	p.frames.Put(f)
}
