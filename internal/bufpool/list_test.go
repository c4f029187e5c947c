package bufpool

import (
	"strconv"
	"strings"
	"testing"
)

func TestListRecyclesLIFO(t *testing.T) {
	built := 0
	l := NewList("test items", func() *int { built++; return new(int) })
	a, b := l.Get(), l.Get()
	l.Put(a)
	l.Put(b)
	if l.Get() != b || l.Get() != a {
		t.Error("Get did not pop the most recently put item first")
	}
	if built != 2 {
		t.Errorf("newFn ran %d times, want 2", built)
	}
	for i, x := range l.free[:2] {
		if x != nil {
			t.Errorf("Get left a stale pointer in popped slot %d", i)
		}
	}
}

// wantPanic runs fn and checks it panics with a message containing want.
func wantPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one containing %q", msg, want)
		}
	}()
	fn()
}

func TestListPutOfItemNotHandedOutPanics(t *testing.T) {
	if !RaceEnabled {
		t.Skip("the ownership checks run in race builds only")
	}
	l := NewList("test items", func() *int { return new(int) })
	x := l.Get()
	l.Put(x)
	wantPanic(t, "bufpool: test items: item put twice", func() { l.Put(x) })
	wantPanic(t, "bufpool: test items: item put twice", func() { l.Put(new(int)) })
}

func TestPutRawTwicePanics(t *testing.T) {
	if !RaceEnabled {
		t.Skip("the raw-slab checks run in race builds only")
	}
	p := New()
	b := p.GetRaw(1500)
	p.PutRaw(b)
	wantPanic(t, "bufpool: 2048-byte slab put twice", func() { p.PutRaw(b) })
}

func TestWriteAfterPutRawPanics(t *testing.T) {
	if !RaceEnabled {
		t.Skip("the raw-slab checks run in race builds only")
	}
	for _, n := range []int{1500, 4200} { // a 2 KiB slab and a page-plus-headers one
		p := New()
		b := p.GetRaw(n)
		p.PutRaw(b)
		b[:cap(b)][cap(b)-1] = 1 // past len: the whole slab is poisoned
		wantPanic(t, "bufpool: "+strconv.Itoa(cap(b))+"-byte slab written after PutRaw", func() { p.GetRaw(n) })
	}
}

// TestPoisonedSlabsCirculate checks that the race-build checks accept the
// legal traffic: slabs written while loaned, released, and loaned again.
func TestPoisonedSlabsCirculate(t *testing.T) {
	p := New()
	for i := 0; i < 100; i++ {
		b := p.GetRaw(1500)
		for j := range b {
			b[j] = byte(i + j)
		}
		f := p.Wrap(p.Clone(b), nil)
		p.PutRaw(b)
		f.Release()
	}
	if p.Stats.Misses != 2 {
		t.Errorf("Misses = %d, want 2 (one slab loaned, one cloned)", p.Stats.Misses)
	}
}
