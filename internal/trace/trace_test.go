package trace

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"

	"vrio/internal/sim"
)

func TestSpanLifecycle(t *testing.T) {
	e := sim.NewEngine()
	tr := New(e)
	root := tr.BeginArg(CatGuestRing, "blk", 0, 7)
	e.At(10, func() {
		child := tr.BeginArg(CatWire, "blk-req", root, 0)
		e.At(25, func() { tr.End(child) })
	})
	e.At(40, func() { tr.End(root) })
	e.Run()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	r, c := spans[0], spans[1]
	if r.Start != 0 || r.End != 40 || r.Parent != 0 || r.Root != 1 || r.Arg != 7 {
		t.Errorf("root span = %+v", r)
	}
	if c.Start != 10 || c.End != 25 || c.Parent != 1 || c.Root != 1 {
		t.Errorf("child span = %+v", c)
	}
	if tr.OpenSpans() != 0 {
		t.Errorf("open spans = %d", tr.OpenSpans())
	}
}

func TestEndIsIdempotentAndGrandchildRoot(t *testing.T) {
	e := sim.NewEngine()
	tr := New(e)
	a := tr.BeginArg(CatGuestRing, "a", 0, 0)
	b := tr.BeginArg(CatWorker, "b", a, 0)
	c := tr.BeginArg(CatBlockdev, "c", b, 0)
	e.At(5, func() { tr.End(c); tr.End(b); tr.End(a) })
	e.At(9, func() { tr.End(a) }) // second End must not move the timestamp
	e.Run()
	if got := tr.Spans()[0].End; got != 5 {
		t.Errorf("re-End moved timestamp to %d", got)
	}
	if got := tr.Spans()[2].Root; got != a {
		t.Errorf("grandchild root = %d, want %d", got, a)
	}
}

func TestFlowLinkTakeLookup(t *testing.T) {
	e := sim.NewEngine()
	tr := New(e)
	id := tr.BeginArg(CatWire, "x", 0, 0)
	k := FlowKey{Kind: 1, A: 42, B: 7}
	tr.Link(k, id)
	if got := tr.Lookup(k); got != id {
		t.Errorf("Lookup = %d, want %d", got, id)
	}
	if got := tr.Take(k); got != id {
		t.Errorf("Take = %d, want %d", got, id)
	}
	if got := tr.Take(k); got != 0 {
		t.Errorf("second Take = %d, want 0", got)
	}
	// Relink overwrites (retransmission supersedes the earlier attempt).
	id2 := tr.BeginArg(CatWire, "y", 0, 0)
	tr.Link(k, id)
	tr.Link(k, id2)
	if got := tr.Take(k); got != id2 {
		t.Errorf("relink Take = %d, want %d", got, id2)
	}
}

func TestBeginAtBackdatesStart(t *testing.T) {
	e := sim.NewEngine()
	tr := New(e)
	e.At(100, func() {
		id := tr.BeginFlowAt(CatWorker, "w", 0, 0, 0, 60)
		tr.End(id)
	})
	e.Run()
	s := tr.Spans()[0]
	if s.Start != 60 || s.End != 100 {
		t.Errorf("span = [%d, %d], want [60, 100]", s.Start, s.End)
	}
}

// TestDisabledTracerIsFree pins the zero-overhead contract: every operation
// on a nil tracer must be a no-op with zero allocations.
func TestDisabledTracerIsFree(t *testing.T) {
	var tr *Tracer
	k := FlowKey{Kind: 1, A: 2, B: 3}
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("nil tracer reports enabled")
		}
		id := tr.BeginArg(CatWorker, "x", 0, 1)
		tr.Link(k, id)
		tr.End(tr.Take(k))
		tr.End(tr.Lookup(k))
		tr.End(id)
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocates %.1f/op", allocs)
	}
	if tr.NumSpans() != 0 || tr.OpenSpans() != 0 || tr.Spans() != nil {
		t.Error("nil tracer recorded something")
	}
}

func buildSampleTrace() *Tracer {
	e := sim.NewEngine()
	tr := New(e)
	root := tr.BeginArg(CatGuestRing, "blk", 0, 1)
	e.At(2_000, func() {
		w := tr.BeginArg(CatWire, "blk-req", root, 0)
		e.At(5_500, func() { tr.End(w) })
	})
	e.At(6_000, func() {
		wk := tr.BeginArg(CatWorker, "blk-req", root, 0)
		e.At(8_000, func() { tr.End(wk) })
	})
	e.At(9_000, func() { tr.End(root) })
	tr.BeginArg(CatCompletion, "orphan", 0, 0) // deliberately left open
	e.Run()
	return tr
}

func TestChromeExport(t *testing.T) {
	tr := buildSampleTrace()
	var a, b bytes.Buffer
	if err := tr.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Chrome export is not reproducible")
	}
	out := a.String()
	for _, want := range []string{
		`"traceEvents":[`,
		`"cat":"guest_ring"`, `"cat":"transport_wire"`, `"cat":"iohyp_worker"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Chrome export missing %s in:\n%s", want, out)
		}
	}
	// Wire span: ts 2µs, dur 3.5µs, rendered with integer-math decimals.
	if !strings.Contains(out, `"ts":2.000,"dur":3.500`) {
		t.Errorf("wire span ts/dur not rendered as expected:\n%s", out)
	}
	// The three request spans share the root's track id.
	if strings.Count(out, `"tid":1,`) != 3 {
		t.Errorf("expected 3 events on track 1:\n%s", out)
	}
	// The open span exports as a begin-only event.
	if !strings.Contains(out, `"ph":"B"`) {
		t.Errorf("open span not exported as B event:\n%s", out)
	}
}

func TestJSONLExport(t *testing.T) {
	tr := buildSampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != tr.NumSpans() {
		t.Fatalf("jsonl lines = %d, spans = %d", len(lines), tr.NumSpans())
	}
	if !strings.Contains(lines[0], `"start":0,"end":9000`) {
		t.Errorf("root line = %s", lines[0])
	}
	if !strings.Contains(buf.String(), `"end":-1`) {
		t.Errorf("no open span in jsonl:\n%s", buf.String())
	}
}

func TestRegistrySnapshotAndValue(t *testing.T) {
	r := NewRegistry()
	r.Gauge("nic", "tx_frames", func() float64 { return 7 })
	backing := 2.5
	r.Gauge("link", "utilization", func() float64 { return backing })
	h := r.Histogram("iohyp", "wait_ns")
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 10)
	}
	if got := r.Value("nic", "tx_frames"); got != 7 {
		t.Errorf("tx_frames value = %v", got)
	}
	if got := r.Value("link", "utilization"); got != 2.5 {
		t.Errorf("gauge value = %v", got)
	}
	if got := r.Value("iohyp", "wait_ns"); got < 900 {
		t.Errorf("histogram p99 value = %v", got)
	}
	if got := r.Value("no", "such"); got != 0 {
		t.Errorf("missing metric value = %v", got)
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	// Sorted by full name: iohyp/wait_ns, link/utilization, nic/tx_frames.
	order := []string{"iohyp", "link", "nic"}
	for i, s := range snap {
		if s.Component != order[i] {
			t.Errorf("snapshot[%d] = %s, want component %s", i, s.Component, order[i])
		}
	}
}

// Snapshots and timeseries sort by full name, byte for byte, though the
// registry never builds one to sort: a component that prefixes another
// sorts by the byte after the prefix against '/', and a component may hold
// a '/' itself.
func TestRegistrySortsByFullName(t *testing.T) {
	r := NewRegistry()
	parts := [][2]string{
		{"vm1", "x"}, {"vm1-vf", "a"}, {"vm10", "a"}, {"vm1", "a/b"}, {"vm", "z"},
		{"vm/1", "a"}, {"vm.1", "a"}, {"vm0", "y"}, {"loadgen/server", "drops"},
		{"loadgen", "w"}, {"loadgen/w0", "sent"}, {"a", "b"}, {"a", "bc"}, {"ab", ""},
	}
	var want []string
	for _, p := range parts {
		r.Gauge(p[0], p[1], func() float64 { return 0 })
		want = append(want, p[0]+"/"+p[1])
	}
	sort.Strings(want)
	if got := r.NewTimeseries().Names; !slices.Equal(got, want) {
		t.Errorf("timeseries names %q, want %q", got, want)
	}
	for i, s := range r.Snapshot() {
		if s.Component+"/"+s.Name != want[i] {
			t.Errorf("snapshot[%d] = %s/%s, want %s", i, s.Component, s.Name, want[i])
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("a", "b")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Gauge("a", "b", func() float64 { return 0 })
}

func TestTimeseriesSamplingViaTicker(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry()
	ops := 0
	r.Gauge("dev", "ops", func() float64 { return float64(ops) })
	ts := r.NewTimeseries()
	e.Ticker(100, func() { ts.Sample(e.Now()) })
	e.Ticker(40, func() { ops++ })
	e.RunUntil(350)
	if len(ts.T) != 3 {
		t.Fatalf("samples = %d, want 3", len(ts.T))
	}
	if ts.T[0] != 100 || ts.T[2] != 300 {
		t.Errorf("sample times = %v", ts.T)
	}
	// At t=100 the 40ns ticker fired at 40, 80 => 2 ops; at 300, 7 ops.
	if ts.Rows[0][0] != 2 || ts.Rows[2][0] != 7 {
		t.Errorf("sample rows = %v", ts.Rows)
	}
	var a, b bytes.Buffer
	if err := ts.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := ts.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("timeseries export is not reproducible")
	}
	if !strings.Contains(a.String(), `{"t":100,"dev/ops":2}`) {
		t.Errorf("jsonl = %s", a.String())
	}
}
