package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal draws", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	a := NewRNG(7)
	fork := a.Fork()
	// Draw from the fork; the parent's subsequent stream must be unaffected
	// by HOW MUCH we draw from the fork (true by construction, but verify
	// the fork produces a distinct stream).
	diff := false
	for i := 0; i < 50; i++ {
		if a.Uint64() != fork.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("forked stream identical to parent")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(4)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(10): value %d drawn %d/10000 times, badly skewed", v, c)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	r := NewRNG(1)
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGRange(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := r.Range(10, 20)
		if v < 10 || v > 20 {
			t.Fatalf("Range(10,20) = %v", v)
		}
	}
	if v := r.Range(7, 7); v != 7 {
		t.Errorf("Range(7,7) = %v, want 7", v)
	}
}

func TestRNGRangePanicsOnInverted(t *testing.T) {
	r := NewRNG(1)
	defer func() {
		if recover() == nil {
			t.Error("Range(hi<lo) did not panic")
		}
	}()
	r.Range(20, 10)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(6)
	const mean = 1000 * Microsecond
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	got := sum / n
	if math.Abs(got-float64(mean)) > 0.05*float64(mean) {
		t.Errorf("Exp mean = %v, want within 5%% of %v", Time(got), mean)
	}
}

func TestRNGExpNonNegative(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 10000; i++ {
		if d := r.Exp(50); d < 0 {
			t.Fatalf("Exp returned negative %v", d)
		}
	}
	if d := r.Exp(0); d != 0 {
		t.Errorf("Exp(0) = %v, want 0", d)
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(10, 1); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}

func TestRNGBoolExtremes(t *testing.T) {
	r := NewRNG(12)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGBoolFrequency(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.02 {
		t.Errorf("Bool(0.25) frequency = %v", frac)
	}
}
