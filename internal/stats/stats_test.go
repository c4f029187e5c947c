package stats

import (
	"math"
	"testing"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(v)
	}
	if m.N() != 8 {
		t.Errorf("N = %d", m.N())
	}
	if m.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", m.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(m.Variance()-32.0/7.0) > 1e-9 {
		t.Errorf("Variance = %v, want %v", m.Variance(), 32.0/7.0)
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Mean() != 0 || m.Variance() != 0 {
		t.Error("empty Mean should report zeros")
	}
}

func TestMeanSingleObservation(t *testing.T) {
	var m Mean
	m.Add(10)
	if m.Variance() != 0 {
		t.Errorf("Variance with n=1 = %v, want 0", m.Variance())
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	c.Inc("exits", 3)
	c.Inc("exits", 2)
	c.Inc("irq", 1)
	if c.Get("exits") != 5 {
		t.Errorf("exits = %d, want 5", c.Get("exits"))
	}
	if c.Get("missing") != 0 {
		t.Error("missing counter should read 0")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "exits" || names[1] != "irq" {
		t.Errorf("Names = %v", names)
	}
	if s := c.String(); s != "exits=5 irq=1" {
		t.Errorf("String = %q", s)
	}
}

func TestCountersMergeAndReset(t *testing.T) {
	var a, b Counters
	a.Inc("x", 1)
	b.Inc("x", 2)
	b.Inc("y", 3)
	a.Merge(&b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Errorf("merged: %s", a.String())
	}
	a.Reset()
	if a.Get("x") != 0 || len(a.Names()) != 0 {
		t.Error("Reset did not clear counters")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Len() != 0 {
		t.Error("empty series should report no points")
	}
	s.Add(0, 10)
	s.Add(1, 30)
	s.Add(2, 20)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.T[1] != 1 || s.V[1] != 30 {
		t.Errorf("point 1 = (%d, %v), want (1, 30)", s.T[1], s.V[1])
	}
}
