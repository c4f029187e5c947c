package virtio

import (
	"bytes"
	"slices"
	"testing"
)

// addPopStock is StockIn written as the driver and device would do it one
// request at a time: n calls of Add(nil, size), stopping at the first
// failure, then PopInto until the ring is empty.
func addPopStock(t *testing.T, r *Ring, n, size int) []uint16 {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := r.Add(nil, size); err != nil {
			break
		}
	}
	var heads []uint16
	var c Chain
	for {
		ok, err := r.PopInto(&c)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return heads
		}
		if len(c.Out) != 0 {
			t.Fatalf("receive chain %d carries %d out buffers", c.Head, len(c.Out))
		}
		heads = append(heads, c.Head)
	}
}

// sameRing fails unless a and b hold the same shared memory, posted flags
// and driver and device state.
func sameRing(t *testing.T, step string, a, b *Ring) {
	t.Helper()
	for _, m := range []struct {
		name string
		a, b []byte
	}{{"descriptor table", a.desc, b.desc}, {"avail ring", a.avail, b.avail}, {"used ring", a.used, b.used}, {"posted flags", a.posted, b.posted}} {
		if !bytes.Equal(m.a, m.b) {
			t.Fatalf("%s: %s differs", step, m.name)
		}
	}
	type state struct {
		inFlight, free              int
		freeHead, lastUsed, lastAvl uint16
	}
	sa := state{a.inFlight, a.FreeDescriptors(), a.freeHead, a.lastUsedIdx, a.lastAvailIdx}
	sb := state{b.inFlight, b.FreeDescriptors(), b.freeHead, b.lastUsedIdx, b.lastAvailIdx}
	if sa != sb {
		t.Fatalf("%s: state %+v, want %+v", step, sa, sb)
	}
}

// StockIn must leave a ring exactly as posting and popping the same
// receive buffers one at a time does, on a fresh ring and after frames
// have been delivered, reaped and restocked, whose freed descriptors
// reorder the free list.
func TestRingStockInMatchesAddPop(t *testing.T) {
	const qsize, size = 256, 2048
	for _, n := range []int{1, 128, qsize + 1} {
		stocked, ref := mustRing(t, qsize), mustRing(t, qsize)
		var heads []uint16
		take := func(h uint16) { heads = append(heads, h) }
		got := stocked.StockIn(n, size, take)
		want := addPopStock(t, ref, n, size)
		if got != len(want) || !slices.Equal(heads, want) {
			t.Fatalf("n=%d: StockIn posted %d heads %v, want %v", n, got, heads, want)
		}
		sameRing(t, "stock", stocked, ref)

		for round := 0; round < 3; round++ {
			k := min(1+round*5, len(heads))
			for i := 0; i < k; i++ {
				frame := pattern(round*100+i, 60+i)
				stocked.Push(Chain{Head: heads[i]}, frame)
				ref.Push(Chain{Head: want[i]}, bytes.Clone(frame))
			}
			heads, want = heads[k:], want[k:]
			a, b := reap(stocked, 0), reap(ref, 0)
			if len(a) != k || len(b) != k {
				t.Fatalf("n=%d round %d: reaped %d and %d, want %d", n, round, len(a), len(b), k)
			}
			for i := range a {
				if a[i].Head != b[i].Head || !bytes.Equal(in1(a[i]), in1(b[i])) {
					t.Fatalf("n=%d round %d: completion %d differs", n, round, i)
				}
			}
			sameRing(t, "reap", stocked, ref)
			stocked.StockIn(k, size, take)
			want = append(want, addPopStock(t, ref, k, size)...)
			if !slices.Equal(heads, want) {
				t.Fatalf("n=%d round %d: restocked heads %v, want %v", n, round, heads, want)
			}
			sameRing(t, "restock", stocked, ref)
		}
	}
}

// StockIn refuses a ring whose device has requests left to pop: handing
// over only the new ones would skip them.
func TestRingStockInNeedsDrainedAvail(t *testing.T) {
	r := mustRing(t, 8)
	if _, err := r.Add(nil, 64); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("StockIn over an undrained avail ring did not panic")
		}
	}()
	r.StockIn(1, 64, func(uint16) {})
}
