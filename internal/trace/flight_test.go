package trace

import (
	"bytes"
	"strings"
	"testing"

	"vrio/internal/sim"
)

func TestFlightRecorderRingSemantics(t *testing.T) {
	f := NewFlightRecorder(4)
	if got := f.Entries(); got != nil {
		t.Fatalf("empty recorder Entries = %v, want nil", got)
	}
	for i := 0; i < 3; i++ {
		f.Record(sim.Time(i), "k", "n", uint64(i))
	}
	es := f.Entries()
	if len(es) != 3 || es[0].Arg != 0 || es[2].Arg != 2 {
		t.Fatalf("partial ring Entries = %v", es)
	}
	// Overflow: 7 total records into capacity 4 keeps the last 4, in order.
	for i := 3; i < 7; i++ {
		f.Record(sim.Time(i), "k", "n", uint64(i))
	}
	es = f.Entries()
	if len(es) != 4 {
		t.Fatalf("full ring holds %d entries, want 4", len(es))
	}
	for i, e := range es {
		if want := uint64(i + 3); e.Arg != want {
			t.Errorf("entry %d Arg = %d, want %d (oldest-first after wrap)", i, e.Arg, want)
		}
	}
}

func TestFlightRecorderZeroAllocWhenFull(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 8; i++ {
		f.Record(sim.Time(i), "k", "n", 0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		f.Record(1, "k", "n", 0)
	})
	if allocs != 0 {
		t.Errorf("Record on a full ring allocates %.1f/op, want 0", allocs)
	}
}

// A recorder allocates its ring on the first Record: one that never
// records, as on most testbeds, holds none and reads as empty.
func TestFlightRecorderRingOnFirstRecord(t *testing.T) {
	f := NewFlightRecorder(256)
	if f.buf != nil || f.Entries() != nil {
		t.Fatal("an unused recorder must hold no ring and report nothing")
	}
	f.Record(1, "k", "n", 0)
	if cap(f.buf) != 256 || len(f.Entries()) != 1 {
		t.Errorf("after one Record: ring capacity %d, %d entries; want 256, 1", cap(f.buf), len(f.Entries()))
	}
}

func TestFlightRecorderNilIsDisabled(t *testing.T) {
	var f *FlightRecorder
	f.Record(1, "k", "n", 0) // must not panic
	if f.Entries() != nil {
		t.Error("nil recorder must report nothing")
	}
}

func TestNewFlightRecorderPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFlightRecorder(0) did not panic")
		}
	}()
	NewFlightRecorder(0)
}

func TestMergeDumpsOrdersByTimeShardTrigger(t *testing.T) {
	dumps := []FlightDump{
		{T: 9, Shard: 0, Trigger: "no_route_storm"},
		{T: 3, Shard: 2, Trigger: "hb_miss"},
		{T: 3, Shard: 1, Trigger: "dark_rack", Entries: []FlightEntry{{T: 2, Kind: "switch_drop", Name: "no_route", Arg: 1}}},
		{T: 3, Shard: 1, Trigger: "hb_miss"},
	}
	got := MergeDumps(dumps)
	order := make([]string, len(got))
	for i, d := range got {
		order[i] = d.Trigger
	}
	want := []string{"dark_rack", "hb_miss", "hb_miss", "no_route_storm"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("merge order = %v, want %v", order, want)
		}
	}
	if &got[0] == &dumps[0] {
		t.Error("MergeDumps must not sort the caller's slice in place")
	}

	var buf bytes.Buffer
	if err := WriteDumpsJSONL(&buf, dumps); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("WriteDumpsJSONL wrote %d lines, want 4", len(lines))
	}
	if want := `{"t":3,"shard":1,"trigger":"dark_rack","entries":[{"t":2,"kind":"switch_drop","name":"no_route","arg":1}]}`; lines[0] != want {
		t.Errorf("first dump line = %q, want %q", lines[0], want)
	}
}

func TestMergeAndAssembleFlow(t *testing.T) {
	e0, e1 := sim.NewEngine(), sim.NewEngine()
	t0, t1 := New(e0), New(e1)
	// Shard 0 records a hop at t=10, shard 1 one at t=5 and one at t=10:
	// the merged order is (start, shard, id).
	t0.Complete(CatFabric, "tor0-spine0", 1, 77, 10, 20)
	t1.Complete(CatFabric, "spine0-tor1", 1, 77, 5, 9)
	t1.Complete(CatWorker, "net-in", 1, 42, 10, 12)
	merged := Merge([]*Tracer{t0, t1})
	if len(merged) != 3 {
		t.Fatalf("merged %d spans, want 3", len(merged))
	}
	if merged[0].Shard != 1 || merged[1].Shard != 0 || merged[2].Shard != 1 {
		t.Errorf("merge order wrong: %+v", merged)
	}
	hops := AssembleFlow(merged, 77)
	if len(hops) != 2 {
		t.Fatalf("flow 77 has %d hops, want 2", len(hops))
	}
	if hops[0].Name != "spine0-tor1" || hops[1].Name != "tor0-spine0" {
		t.Errorf("flow hops out of order: %+v", hops)
	}
	if got := AssembleFlow(merged, 0); got != nil {
		t.Errorf("flow key 0 must assemble nothing, got %+v", got)
	}
}
