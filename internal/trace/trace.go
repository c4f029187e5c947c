// Package trace is the observability substrate of the vRIO reproduction: a
// sim-clock-native span tracer plus a per-component metrics registry. Both
// are deterministic by construction — timestamps come from the simulation
// engine, span ids are allocation-ordered, and every export walks its data
// in a fixed order — so two runs with the same seed produce byte-identical
// output.
//
// Zero overhead when disabled: a nil *Tracer is the disabled tracer. Every
// method nil-checks its receiver and returns immediately, which the
// compiler inlines down to a pointer test, so instrumented hot paths (the
// engine schedule path, the transport driver, the IOhyp workers) pay ~0 ns
// and 0 allocs with tracing off. BenchmarkTraceDisabled in internal/sim
// enforces this next to the engine benchmarks.
package trace

import "vrio/internal/sim"

// Clock supplies span timestamps. *sim.Engine satisfies it; trace depends
// on sim (never the reverse) so the engine hot path stays instrumentation
// free.
type Clock interface {
	Now() sim.Time
}

// Category labels the datapath stage a span measures. Categories are the
// Chrome-trace "cat" field; the four core ones below cover a paravirtual
// request end to end.
type Category string

// Datapath stages.
const (
	// CatGuestRing is guest-side submission occupancy: from the request
	// being posted (a virtio ring Add, or the vRIO transport driver's
	// send — its ring-equivalent submission point) until the guest reaps
	// the completion.
	CatGuestRing Category = "guest_ring"
	// CatWire is transport flight time: driver encode/send until the
	// endpoint side picks the reassembled message up.
	CatWire Category = "transport_wire"
	// CatWorker is IOhyp sidecore processing: worker dispatch through the
	// steered work item.
	CatWorker Category = "iohyp_worker"
	// CatCompletion is the return path: response leaving the IOhost until
	// the client driver delivers it.
	CatCompletion Category = "completion"
	// CatBlockdev is block backend service time on the IOhost.
	CatBlockdev Category = "blockdev"
	// CatFault marks injected fault events (frame loss, corruption, port
	// flaps, worker stalls) as zero-length spans, so a trace timeline shows
	// which requests a fault landed on.
	CatFault Category = "fault"
	// CatFabric is one fabric-cable hop (ToR uplink or spine downlink):
	// serialization start through modeled delivery on the far side. Hop
	// spans carry the destination MAC folded into Flow, so the hops of one
	// request correlate across shards in the merged export even though each
	// shard records into its own tracer.
	CatFabric Category = "fabric_hop"
)

// SpanID identifies a span within one Tracer. 0 is the null span: every
// operation accepts it and does nothing, so disabled-tracer call sites need
// no branching.
type SpanID uint32

// Span is one recorded interval. Spans with Parent 0 are roots; Root is the
// transitive root, which the Chrome export uses as the track (tid) so each
// request renders as one self-contained lane with correctly nested children.
type Span struct {
	Parent SpanID
	Root   SpanID
	Cat    Category
	Name   string
	Arg    uint64 // request/flow id, for correlating spans in the export
	// Flow is a fabric-global correlation key (0 = none): spans recorded by
	// different shards' tracers but belonging to one request carry the same
	// Flow — by convention a Key48-folded wire-visible MAC — so the merged
	// export can stitch a cross-rack request back together without any
	// shared state between shards.
	Flow  uint64
	Start sim.Time
	End   sim.Time // -1 while open
}

// FlowKey links spans across components that share no call path: the driver
// Links a span under a key derived from wire-visible ids (transport MAC +
// ReqID/OrigID), and the endpoint Looks it up on arrival — no wire-format
// change needed. Kind namespaces the id spaces (see transport's Flow*
// constants); A is typically a Key48-folded MAC, B a request id.
type FlowKey struct {
	Kind uint8
	A, B uint64
}

// Tracer records spans against a Clock. A nil Tracer is the disabled
// tracer. Not safe for concurrent use — each simulation cell owns its own,
// like everything else inside a cell.
type Tracer struct {
	clock Clock
	spans []Span
	flows map[FlowKey]SpanID
}

// New builds an enabled tracer reading timestamps from clock (normally the
// cell's *sim.Engine).
func New(clock Clock) *Tracer {
	return &Tracer{clock: clock, flows: make(map[FlowKey]SpanID)}
}

// Enabled reports whether spans are being recorded. The disabled path is a
// single inlined nil test — this is the guard hot paths wrap instrumentation
// blocks in.
func (t *Tracer) Enabled() bool { return t != nil }

// BeginArg opens a span with a correlation id recorded on it. parent 0
// starts a new root (a new track in the Chrome export). Returns 0 when
// disabled.
func (t *Tracer) BeginArg(cat Category, name string, parent SpanID, arg uint64) SpanID {
	if t == nil {
		return 0
	}
	return t.beginAt(cat, name, parent, arg, t.clock.Now())
}

// BeginFlow is BeginArg with a fabric-global flow key recorded on the span
// (see Span.Flow). Within one tracer it behaves exactly like BeginArg.
func (t *Tracer) BeginFlow(cat Category, name string, parent SpanID, arg, flow uint64) SpanID {
	if t == nil {
		return 0
	}
	return t.BeginFlowAt(cat, name, parent, arg, flow, t.clock.Now())
}

// BeginFlowAt is BeginFlow with an explicit (past) start time — for spans
// whose interval began before the instrumentation point runs, e.g. a worker
// completion callback that knows the service cost it just paid. start must
// not exceed the current time. flow 0 records a plain span.
func (t *Tracer) BeginFlowAt(cat Category, name string, parent SpanID, arg, flow uint64, start sim.Time) SpanID {
	if t == nil {
		return 0
	}
	id := t.beginAt(cat, name, parent, arg, start)
	t.spans[id-1].Flow = flow
	return id
}

// Complete records an already-closed span in one call. The fabric wires use
// it: at send time the delivery instant is already determined (serialization
// plus fixed propagation), so the whole hop is known up front — end may lie
// in the simulated future. Completed spans are roots (no parent); they
// correlate through Flow, not through the span tree.
func (t *Tracer) Complete(cat Category, name string, arg, flow uint64, start, end sim.Time) {
	if t == nil {
		return
	}
	id := t.beginAt(cat, name, 0, arg, start)
	s := &t.spans[id-1]
	s.Flow = flow
	s.End = end
}

func (t *Tracer) beginAt(cat Category, name string, parent SpanID, arg uint64, start sim.Time) SpanID {
	id := SpanID(len(t.spans) + 1)
	root := id
	if parent != 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, Span{
		Parent: parent, Root: root, Cat: cat, Name: name, Arg: arg,
		Start: start, End: -1,
	})
	return id
}

// End closes a span at the current time. Ending the null span or an
// already-closed span is a no-op, so completion paths need not track
// whether tracing was on when the request started.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	if s.End < 0 {
		s.End = t.clock.Now()
	}
}

// Link parks a span under a flow key for a downstream component to pick up.
// Relinking a key overwrites it (a retransmission supersedes the attempt).
func (t *Tracer) Link(k FlowKey, id SpanID) {
	if t == nil || id == 0 {
		return
	}
	t.flows[k] = id
}

// Take removes and returns the span linked under k (0 if none).
func (t *Tracer) Take(k FlowKey) SpanID {
	if t == nil {
		return 0
	}
	id, ok := t.flows[k]
	if ok {
		delete(t.flows, k)
	}
	return id
}

// Lookup returns the span linked under k without consuming it.
func (t *Tracer) Lookup(k FlowKey) SpanID {
	if t == nil {
		return 0
	}
	return t.flows[k]
}

// Spans returns the recorded spans in begin order. Nil when disabled.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// NumSpans reports how many spans were recorded.
func (t *Tracer) NumSpans() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// OpenSpans reports spans begun but never ended — lost requests, or flows
// still in flight when the run stopped.
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.spans {
		if t.spans[i].End < 0 {
			n++
		}
	}
	return n
}

// Key48 folds a 48-bit MAC address into a FlowKey word. ethernet.MAC's
// underlying type is [6]byte, so callers pass it directly.
func Key48(b [6]byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}
