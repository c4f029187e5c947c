package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"vrio/internal/sim"
)

// Flight recorder: a bounded ring of recent noteworthy events, always on.
// Full tracing costs memory proportional to run length, so fabric runs keep
// it off by default — the flight recorder is the cheap middle ground: fixed
// capacity, allocated by the first record and none per record after it, so a
// run that records nothing pays for no ring; one per shard
// (single-threaded like everything else in a cell). When an anomaly fires
// (dark rack, no-route storm, heartbeat miss), the rollup snapshots the
// ring, so post-mortems get the last-N events leading up to the anomaly
// without anyone having paid full-trace cost.

// FlightEntry is one recorded event. Kind groups entries ("switch_drop",
// "rack_event", "hb_miss"); Name refines it (the drop reason, the event
// kind); Arg carries a numeric detail (IOhost index, VM id, tally).
type FlightEntry struct {
	T    sim.Time
	Kind string
	Name string
	Arg  uint64
}

// FlightRecorder is a fixed-capacity ring of FlightEntry. A nil recorder is
// the disabled recorder: Record on nil is an inlined no-op, matching the
// nil-*Tracer convention.
type FlightRecorder struct {
	buf  []FlightEntry // nil until the first Record, then capacity size
	size int
	next int // index the next Record writes
}

// NewFlightRecorder builds a recorder holding the last `capacity` entries.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		panic("trace: non-positive flight recorder capacity")
	}
	return &FlightRecorder{size: capacity}
}

// Record appends an entry, evicting the oldest once the ring is full. Only
// the first Record allocates; safe on a nil recorder.
func (f *FlightRecorder) Record(t sim.Time, kind, name string, arg uint64) {
	if f == nil {
		return
	}
	if f.buf == nil {
		f.buf = make([]FlightEntry, 0, f.size)
	}
	e := FlightEntry{T: t, Kind: kind, Name: name, Arg: arg}
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, e)
	} else {
		f.buf[f.next] = e
	}
	f.next++
	if f.next == cap(f.buf) {
		f.next = 0
	}
}

// Entries returns the retained entries oldest-first, as a fresh slice.
func (f *FlightRecorder) Entries() []FlightEntry {
	if f == nil || len(f.buf) == 0 {
		return nil
	}
	out := make([]FlightEntry, 0, len(f.buf))
	if len(f.buf) < cap(f.buf) {
		// Ring not yet full: buf is the whole history in record order.
		return append(out, f.buf...)
	}
	out = append(out, f.buf[f.next:]...)
	return append(out, f.buf[:f.next]...)
}

// FlightDump is one anomaly-triggered snapshot of a shard's ring: what
// tripped, when, and the entries leading up to it.
type FlightDump struct {
	T       sim.Time
	Shard   int
	Trigger string // "dark_rack", "no_route_storm", "hb_miss"
	Entries []FlightEntry
}

// MergeDumps orders anomaly dumps by (time, shard, trigger) — the fixed key
// every fabric-wide merge in this codebase uses, so the dump stream is
// byte-identical at any worker count.
func MergeDumps(dumps []FlightDump) []FlightDump {
	out := make([]FlightDump, len(dumps))
	copy(out, dumps)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Trigger < b.Trigger
	})
	return out
}

// WriteDumpsJSONL emits merged dumps, one object per line, entries inline.
func WriteDumpsJSONL(w io.Writer, dumps []FlightDump) error {
	bw := bufio.NewWriter(w)
	for _, d := range MergeDumps(dumps) {
		if _, err := fmt.Fprintf(bw, `{"t":%d,"shard":%d,"trigger":%q,"entries":[`,
			int64(d.T), d.Shard, d.Trigger); err != nil {
			return err
		}
		for i, e := range d.Entries {
			if i > 0 {
				bw.WriteByte(',')
			}
			if _, err := fmt.Fprintf(bw, `{"t":%d,"kind":%q,"name":%q,"arg":%d}`,
				int64(e.T), e.Kind, e.Name, e.Arg); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("]}\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
