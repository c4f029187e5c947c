package stats

import "testing"

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
