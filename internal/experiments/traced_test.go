package experiments

import (
	"bytes"
	"testing"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/trace"
)

// TestTraceRunDeterministicAndComplete is the acceptance check for the
// tracing layer: a traced run produces all four core span categories, spans
// nest inside their parents, and two same-seed runs export byte-identical
// artifacts.
func TestTraceRunDeterministicAndComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	a, err := TraceRun(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TraceRun(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Chrome, b.Chrome) {
		t.Error("Chrome exports differ between same-seed runs")
	}
	if !bytes.Equal(a.Spans, b.Spans) {
		t.Error("span logs differ between same-seed runs")
	}
	if !bytes.Equal(a.Metrics, b.Metrics) {
		t.Error("metrics series differ between same-seed runs")
	}

	spans := a.Tracer.Spans()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	cats := map[trace.Category]int{}
	for i := range spans {
		cats[spans[i].Cat]++
	}
	for _, want := range []trace.Category{
		trace.CatGuestRing, trace.CatWire, trace.CatWorker,
		trace.CatCompletion, trace.CatBlockdev,
	} {
		if cats[want] == 0 {
			t.Errorf("no %s spans recorded (got %v)", want, cats)
		}
	}

	// Every closed child must lie within its parent's interval, and Root
	// must be the transitive root — that is what makes the Chrome export
	// nest correctly per track.
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p := &spans[s.Parent-1]
		if s.Start < p.Start {
			t.Errorf("span %d starts at %d before parent %d at %d", i+1, s.Start, s.Parent, p.Start)
		}
		if s.End >= 0 && p.End >= 0 && s.End > p.End {
			t.Errorf("span %d ends at %d after parent %d at %d", i+1, s.End, s.Parent, p.End)
		}
		if want := spans[s.Parent-1].Root; s.Root != want {
			t.Errorf("span %d root = %d, want parent's root %d", i+1, s.Root, want)
		}
	}

	if len(a.Metrics) == 0 {
		t.Error("no metrics samples exported")
	}
	if !bytes.Contains(a.Metrics, []byte(`"iohyp/msgs":`)) {
		t.Errorf("metrics series missing iohyp/msgs:\n%.300s", a.Metrics)
	}
}

// TestUntracedRunRecordsNothing pins that the default (Trace off) leaves the
// datapath untouched: no tracer exists and nothing is recorded.
func TestUntracedRunStaysDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tb := cluster.Build(cluster.Spec{Model: core.ModelVRIO, VMsPerHost: 1, Seed: 7})
	tb.RunEach(sim.Millisecond/2, sim.Millisecond, tb.StartRR)
	if tb.Tracer.Enabled() {
		t.Error("tracer enabled without Spec.Trace")
	}
	if tb.Tracer.NumSpans() != 0 {
		t.Error("disabled tracer recorded spans")
	}
}
