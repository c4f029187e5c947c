package experiments

import (
	"bytes"
	"fmt"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/trace"
)

// TraceResult is one traced vRIO run: the exported artifacts plus the live
// tracer/testbed for programmatic inspection.
type TraceResult struct {
	// Chrome is the trace-event JSON (chrome://tracing / Perfetto).
	Chrome []byte
	// Spans is the raw span log, one JSON object per line.
	Spans []byte
	// Metrics is the sim-time metrics timeseries, one JSON object per tick.
	Metrics []byte

	Tracer  *trace.Tracer
	Testbed *cluster.Testbed
}

// TraceRun executes a short netperf-RR-plus-block vRIO run with tracing on
// and metrics sampled every interval, and exports all three artifacts. The
// run is deterministic: the same seed produces byte-identical output. It is
// deliberately short (a few sim-milliseconds) — the point is a loadable
// trace of the datapath, not a statistically meaningful benchmark.
func TraceRun(seed uint64, interval sim.Time) (TraceResult, error) {
	if interval <= 0 {
		interval = sim.Millisecond / 2
	}
	tb := cluster.Build(cluster.Spec{
		Model:      core.ModelVRIO,
		VMsPerHost: 2,
		WithBlock:  true,
		Trace:      true,
		Seed:       seed,
	})
	ts := tb.StartMetricsSampling(interval)

	// RR traffic on every guest exercises guest_ring, transport_wire,
	// iohyp_worker, and completion spans end to end.
	rs := tb.StartEach(tb.StartRR)
	// A small block write/read loop on guest 0 adds blockdev spans.
	g0 := tb.Guests[0]
	data := make([]byte, 2*tb.P.SectorSize)
	for i := range data {
		data[i] = byte(i)
	}
	var blkLoop func(sector uint64)
	blkLoop = func(sector uint64) {
		g0.WriteBlock(sector, data, func(err error) {
			if err != nil {
				return
			}
			g0.ReadBlock(sector, 2, func(_ []byte, err error) {
				if err != nil {
					return
				}
				blkLoop(sector + 2)
			})
		})
	}
	blkLoop(0)

	tb.RunMeasured(sim.Millisecond, 4*sim.Millisecond, rs...)

	res := TraceResult{Tracer: tb.Tracer, Testbed: tb}
	var buf bytes.Buffer
	if err := tb.Tracer.WriteChrome(&buf); err != nil {
		return res, fmt.Errorf("chrome export: %w", err)
	}
	res.Chrome = append([]byte{}, buf.Bytes()...)
	buf.Reset()
	if err := tb.Tracer.WriteJSONL(&buf); err != nil {
		return res, fmt.Errorf("span export: %w", err)
	}
	res.Spans = append([]byte{}, buf.Bytes()...)
	buf.Reset()
	if err := ts.WriteJSONL(&buf); err != nil {
		return res, fmt.Errorf("metrics export: %w", err)
	}
	res.Metrics = append([]byte{}, buf.Bytes()...)
	return res, nil
}
