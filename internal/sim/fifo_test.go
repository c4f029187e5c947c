package sim

import (
	"math/rand"
	"testing"
)

// Property: any interleaving of pushes and pops returns items in push
// order, exactly as a plain slice queue does.
func TestFIFOMatchesSliceQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f FIFO[int]
	var model []int
	next := 0
	for step := 0; step < 100000; step++ {
		if len(model) == 0 || rng.Intn(100) < 52 {
			f.Push(next)
			model = append(model, next)
			next++
		} else {
			got, want := f.Pop(), model[0]
			model = model[1:]
			if got != want {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, want)
			}
		}
		if f.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, f.Len(), len(model))
		}
	}
}

// A queue that never drains must not grow: with occupancy held at k, the
// backing slice slides instead of reallocating, and steady state is
// allocation-free.
func TestFIFONeverDrainingStaysBounded(t *testing.T) {
	var f FIFO[[]byte]
	const k = 40
	for i := 0; i < k; i++ {
		f.Push(nil)
	}
	cycle := func() {
		f.Push(nil)
		f.Pop()
	}
	for i := 0; i < 10000; i++ {
		cycle()
	}
	if c := cap(f.q); c > 2*k+8 {
		t.Errorf("backing capacity %d after 10000 cycles at occupancy %d", c, k)
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("steady push/pop: %v allocs/op, want 0", n)
	}
}

// Pop clears the vacated slot so the queue pins no popped item for the
// collector.
func TestFIFOPopDropsReference(t *testing.T) {
	var f FIFO[*int]
	x, y := new(int), new(int)
	f.Push(x)
	f.Push(y)
	f.Pop()
	if f.q[0] != nil {
		t.Error("popped slot still references its item")
	}
}
