package bufpool

import (
	"sync"
	"testing"
)

func TestClassRounding(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 64}, {64, 64}, {65, 128}, {1500, 2048}, {2048, 2048},
		{2049, 4096}, {4096, 4096}, {4097, PageFrameSize}, {PageFrameSize, PageFrameSize},
		{PageFrameSize + 1, 8192}, {65536, 65536}, {1 << 17, 1 << 17},
	}
	for _, c := range cases {
		b := New().GetRaw(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Errorf("GetRaw(%d): len=%d cap=%d, want len=%d cap=%d",
				c.n, len(b), cap(b), c.n, c.wantCap)
		}
	}
}

// classForLoop is classFor as it was first written, a walk up the
// power-of-two classes, with the page-plus-headers class stepped through
// between 4 KiB and 8 KiB.
func classForLoop(n int) int {
	if n > MaxPooled {
		return -1
	}
	c := 0
	for sz := 1 << minClassShift; sz < n; sz <<= 1 {
		c++
		if sz == 1<<12 {
			if n <= PageFrameSize {
				return c
			}
			c++
		}
	}
	return c
}

// classFor computes the class with bits.Len; it must agree with the walk up
// the classes for every size, and each class must hold its own size and
// not one byte more.
func TestClassForMatchesLoop(t *testing.T) {
	for n := 0; n <= MaxPooled+1; n++ {
		if got, want := classFor(n), classForLoop(n); got != want {
			t.Fatalf("classFor(%d) = %d, want %d", n, got, want)
		}
	}
	for c := 0; c < numClasses; c++ {
		next := c + 1
		if next == numClasses {
			next = -1
		}
		if sz := classSize(c); classFor(sz) != c || classFor(sz+1) != next {
			t.Errorf("class %d: classFor(%d) = %d, classFor(%d) = %d; want %d, %d",
				c, sz, classFor(sz), sz+1, classFor(sz+1), c, next)
		}
	}
}

// Property, for every pooled size n: GetRaw's class holds n and no smaller
// class does, and PutRaw adopts a slab of capacity n exactly when n is a
// class size.
func TestClassesFitAndAdoptExactly(t *testing.T) {
	isClass := make(map[int]bool)
	for c := range numClasses {
		isClass[classSize(c)] = true
	}
	p := New()
	backing := make([]byte, MaxPooled)
	for n := 1; n <= MaxPooled; n++ {
		c := classFor(n)
		if classSize(c) < n || c > 0 && classSize(c-1) >= n {
			t.Fatalf("n=%d: class %d of %d bytes, the class below holds %d", n, c, classSize(c), classSize(max(c-1, 0)))
		}
		if adopted := p.PutRaw(backing[:0:n]); adopted != isClass[n] {
			t.Fatalf("PutRaw of a %d-byte slab: adopted %v, want %v", n, adopted, isClass[n])
		} else if adopted {
			p.GetRaw(n) // take it back out (and, in race builds, check its poison)
		}
	}
	for n, want := range map[int]bool{PageFrameSize: true, PageFrameSize + 1: false, 8191: false, 8192: true} {
		if got := p.PutRaw(make([]byte, 0, n)); got != want {
			t.Errorf("PutRaw of a %d-byte slab: adopted %v, want %v", n, got, want)
		}
	}
}

func TestOversizeFallsThrough(t *testing.T) {
	p := New()
	b := p.GetRaw(MaxPooled + 1)
	if len(b) != MaxPooled+1 {
		t.Fatalf("oversize len = %d", len(b))
	}
	if p.Stats.Misses != 1 {
		t.Errorf("Misses = %d, want 1", p.Stats.Misses)
	}
	if p.PutRaw(b) {
		t.Error("oversize slab adopted; should fall to the GC")
	}
	if p.Stats.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", p.Stats.Dropped)
	}
}

func TestPutAdoptsOnlyExactClassCapacity(t *testing.T) {
	p := New()
	if p.PutRaw(make([]byte, 100)) { // cap 100: not a class size
		t.Error("adopted a slab with off-class capacity")
	}
	if !p.PutRaw(make([]byte, 10, 2048)) { // cap 2048: exact class
		t.Error("declined a slab with exact class capacity")
	}
	if p.FreeSlabs() != 1 {
		t.Errorf("FreeSlabs = %d, want 1", p.FreeSlabs())
	}
	// Foreign slabs (allocated by another pool) circulate by the same rule.
	q := New()
	if !p.PutRaw(q.GetRaw(1500)) {
		t.Error("declined a foreign pool's slab")
	}
	if p.Stats.Adopted != 2 {
		t.Errorf("Adopted = %d, want 2", p.Stats.Adopted)
	}
}

func TestClassCapBoundsRetention(t *testing.T) {
	p := New()
	for i := 0; i < defaultClassCap+10; i++ {
		p.PutRaw(make([]byte, 64))
	}
	if got := p.FreeSlabs(); got != defaultClassCap {
		t.Errorf("FreeSlabs = %d, want cap %d", got, defaultClassCap)
	}
	if p.Stats.Dropped != 10 {
		t.Errorf("Dropped = %d, want 10", p.Stats.Dropped)
	}
}

func TestReleasedSlabIsReused(t *testing.T) {
	p := New()
	b := p.GetRaw(1000)
	b[0] = 0xAA
	if !p.PutRaw(b) {
		t.Fatal("slab not adopted")
	}
	b2 := p.GetRaw(900) // same class (2048)
	if &b[0] != &b2[0] {
		t.Error("pool did not reuse the released slab")
	}
	if p.Stats.Misses != 1 {
		t.Errorf("Misses = %d, want 1 (second Get must hit)", p.Stats.Misses)
	}
}

func TestReleasePanicsAfterFinal(t *testing.T) {
	p := New()
	f := p.Wrap(p.GetRaw(64), nil)
	f.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	f.Release()
}

func TestNilFrameIsSafe(t *testing.T) {
	var f *Frame
	f.Release()
}

func TestWrapRecyclesWholeSlab(t *testing.T) {
	p := New()
	slab := p.GetRaw(2000) // class 2048
	view := slab[14:900]   // payload behind a header
	f := p.Wrap(slab, view)
	if &f.B[0] != &view[0] || len(f.B) != len(view) {
		t.Fatal("wrapped view does not alias the slab")
	}
	f.Release()
	// The FULL slab came back, not the truncated view.
	b := p.GetRaw(2048)
	if &b[0] != &slab[0] {
		t.Error("wrapped slab not recycled from its start")
	}
	if cap(b) != 2048 {
		t.Errorf("recycled cap = %d", cap(b))
	}
	if f.B != nil {
		t.Error("Release left the view in place")
	}
	// The Frame struct itself recycles too.
	if f2 := p.Wrap(b, b); f2 != f {
		t.Error("frame struct not recycled through the free list")
	}
}

// TestAliasingAfterRelease documents the use-after-free contract: once a slab
// is released, the very next same-class GetRaw may hand the same memory to a
// new owner, so writes through a stale reference corrupt the new buffer. The
// datapath's ownership rules (Deliver consumes, Send/RespondBlk borrow and
// copy synchronously) exist precisely to make this scenario impossible.
func TestAliasingAfterRelease(t *testing.T) {
	p := New()
	stale := p.GetRaw(1024)
	p.PutRaw(stale)
	fresh := p.GetRaw(1024)
	fresh[0] = 1
	stale[0] = 99 // the bug this package's conventions prevent
	if fresh[0] != 99 {
		t.Fatal("expected stale alias to clobber the fresh buffer (LIFO reuse)")
	}
}

// TestPoolStressParallel churns private pools from many goroutines under the
// race detector. Pools are single-threaded by contract — the point here is
// that per-cell pools (as the parallel experiment runner creates) share no
// hidden state, so fully independent churn is race-free.
func TestPoolStressParallel(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			p := New()
			next := func() uint64 { seed = seed*6364136223846793005 + 1; return seed >> 33 }
			var loans [][]byte
			var leases []*Frame
			for i := 0; i < 20000; i++ {
				switch next() % 5 {
				case 0:
					loans = append(loans, p.GetRaw(int(next()%8192)+1))
				case 1:
					if n := len(loans); n > 0 {
						p.PutRaw(loans[n-1])
						loans = loans[:n-1]
					}
				case 2:
					slab := p.GetRaw(int(next()%4096) + 1)
					leases = append(leases, p.Wrap(slab, slab))
				case 3:
					if n := len(leases); n > 0 {
						leases[n-1].Release()
						leases = leases[:n-1]
					}
				case 4:
					slab := p.GetRaw(2048)
					leases = append(leases, p.Wrap(slab, slab[64:128]))
				}
			}
			for _, b := range loans {
				p.PutRaw(b)
			}
			for _, f := range leases {
				f.Release()
			}
			if p.Stats.Gets < 1000 {
				t.Errorf("stress barely exercised the pool: %d gets", p.Stats.Gets)
			}
		}(uint64(g)*2654435761 + 1)
	}
	wg.Wait()
}
