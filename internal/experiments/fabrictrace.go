package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/ethernet"
	"vrio/internal/rack"
	"vrio/internal/sim"
	"vrio/internal/trace"
	"vrio/internal/workload"
)

// FabricTraceResult is one traced fabric run's exported observability
// artifacts plus the programmatic views the experiment (and tests) inspect.
type FabricTraceResult struct {
	// Spans is the merged cross-shard span export (JSONL, one span per line,
	// ordered by (start, shard, id)).
	Spans []byte
	// Metrics is the fabric-wide rollup snapshot stream (JSONL, one object
	// per sampling tick holding every rack's metrics plus the spine's).
	Metrics []byte
	// Anomalies is the merged flight-recorder dump stream (JSONL).
	Anomalies []byte

	// NumSpans counts merged spans across all shards.
	NumSpans int
	// Hops is the probe request's assembled flow: a guest on rack 0 sends one
	// frame to a guest on rack 1 that no station drives, so the flow's first
	// hops are exactly the request's path — guest ring, egress IOhyp worker,
	// ToR uplink, spine downlink, remote IOhyp worker, completion.
	Hops []trace.FlowHop
	// Dumps is the rollup's anomaly dump list (what Anomalies serializes).
	Dumps []trace.FlightDump
}

// fabricTraceRun executes a short traced four-rack spine-leaf fabric run —
// cross-rack RR load plus one guest-to-guest probe — with the datacenter
// rollup sampling every interval, and exports the merged artifacts.
// failRack >= 0 kills that rack's every IOhost mid-run (the flight-recorder
// cell's anomaly source). Deterministic: the same seed produces
// byte-identical Spans/Metrics/Anomalies at any worker count.
func fabricTraceRun(seed uint64, interval, warm, dur sim.Time, workers, failRack int) (FabricTraceResult, error) {
	f, err := cluster.BuildFabric(cluster.FabricSpec{
		Rack: cluster.Spec{
			Model: core.ModelVRIO, VMHosts: 1, VMsPerHost: 2,
			StationPerVM: true, Trace: true, Seed: seed,
		},
		NumRacks:         4,
		Oversubscription: 4,
	})
	if err != nil {
		return FabricTraceResult{}, err
	}
	defer f.Close()

	dc := rack.NewDatacenter(f, rack.Config{})
	ru := rack.NewRollup(dc, rack.RollupConfig{Interval: interval})

	// Cross-rack RR load, as fabricscaling drives it — except rack 1's guest 0,
	// the probe target, gets no station driver so its flow key carries only the
	// probe's traffic.
	probeSrc := f.Racks[0].Guests[0]
	probeDst := f.Racks[1].Guests[0]
	perRack := f.StartEach(func(r, g int) *workload.Results {
		if r == 0 && g == 0 { // rack 0's station would drive probeDst
			f.Racks[1].ServeRR(0)
			return nil
		}
		return f.StartRR(r, g)
	})
	for r, rs := range perRack {
		for _, res := range rs {
			ru.ObserveLatency(r, true, &res.Latency)
		}
	}
	// The probe: one guest-to-guest frame across the spine at measurement
	// start. probeDst's RR server echoes it back, and probeSrc's echoes that,
	// so the pair ping-pongs for the rest of the run — every request leg
	// carries flow Key48(probeDst F-MAC) through all six hops.
	f.Racks[0].Eng.At(warm, func() {
		probeSrc.SendNet(ethernet.Frame{
			Dst:       probeDst.MAC(),
			EtherType: ethernet.EtherTypePlain,
			Payload:   make([]byte, 64),
		})
	})
	if failRack >= 0 {
		tb := f.Racks[failRack]
		tb.Eng.At(warm, func() {
			for _, h := range tb.IOHyps {
				h.Fail()
			}
		})
	}

	dc.Start()
	ru.Start()
	f.RunMeasured(warm, dur, workers, perRack)
	ru.Stop()
	dc.Stop()

	res := FabricTraceResult{Dumps: ru.Anomalies()}
	merged := trace.Merge(f.Tracers())
	res.NumSpans = len(merged)
	res.Hops = trace.AssembleFlow(merged, trace.Key48(probeDst.MAC()))
	var buf bytes.Buffer
	if err := f.WriteSpans(&buf); err != nil {
		return res, fmt.Errorf("span export: %w", err)
	}
	res.Spans = append([]byte{}, buf.Bytes()...)
	buf.Reset()
	if err := ru.WriteMetricsJSONL(&buf); err != nil {
		return res, fmt.Errorf("metrics export: %w", err)
	}
	res.Metrics = append([]byte{}, buf.Bytes()...)
	buf.Reset()
	if err := ru.WriteAnomaliesJSONL(&buf); err != nil {
		return res, fmt.Errorf("anomaly export: %w", err)
	}
	res.Anomalies = append([]byte{}, buf.Bytes()...)
	return res, nil
}

// requestHops cuts the probe flow down to the request's first leg: the hops
// from the first guest_ring span up to (and including) the first completion.
// The flow ping-pongs for the whole run; the first leg is the walkthrough.
func requestHops(hops []trace.FlowHop) []trace.FlowHop {
	start := -1
	for i, h := range hops {
		if h.Cat == trace.CatGuestRing {
			start = i
			break
		}
	}
	if start < 0 {
		return nil
	}
	for i := start; i < len(hops); i++ {
		if hops[i].Cat == trace.CatCompletion {
			return hops[start : i+1]
		}
	}
	return hops[start:]
}

// fabricTrace regenerates the observability walkthrough: a worker-count
// equivalence check over the exported artifacts, the probe request's
// hop-by-hop latency attribution (a Line per hop), and the flight-recorder
// anomaly path.
var fabricTrace = &Grid{
	ID:    "fabrictrace",
	Title: "Fabric observability: cross-shard flow tracing, rollup equivalence, and the flight recorder",
	Axes:  []Axis{axis("cell", "equivalence", "hops", "flight")},
	Cell: func(quick bool, p Point) []Line {
		const seed = 42
		warm, dur := durations(quick, sim.Millisecond, 4*sim.Millisecond)
		run := func(warm, dur sim.Time, workers, failRack int) FabricTraceResult {
			res, err := fabricTraceRun(seed, sim.Millisecond, warm, dur, workers, failRack)
			if err != nil {
				panic(err)
			}
			return res
		}
		switch p["cell"] {
		case "equivalence":
			// The exported spans, merged metrics and anomalies must be
			// byte-identical between serial and multi-worker execution.
			serial, sharded := run(warm, dur, 1, -1), run(warm, dur, fabricWorkers(), -1)
			same := 0.0
			if bytes.Equal(serial.Spans, sharded.Spans) && bytes.Equal(serial.Metrics, sharded.Metrics) &&
				bytes.Equal(serial.Anomalies, sharded.Anomalies) {
				same = 1
			}
			return []Line{
				{"span+metrics+anomaly exports, serial vs sharded", Metrics{"identical": same}},
				{"merged spans", Metrics{"spans": float64(serial.NumSpans)}},
			}
		case "hops":
			var out []Line
			hops := requestHops(run(warm, dur, fabricWorkers(), -1).Hops)
			for _, h := range hops {
				out = append(out, Line{fmt.Sprintf("%s %s (shard %d)", h.Cat, h.Name, h.Shard), Metrics{"µs": float64(h.End-h.Start) / 1e3}})
			}
			if n := len(hops); n > 0 {
				out = append(out, Line{"probe request, guest ring to completion", Metrics{"µs": float64(hops[n-1].End-hops[0].Start) / 1e3, "flow": 1}})
			}
			return out
		default:
			// Kill rack 1's IOhosts at measurement start; the rollup must
			// trip and dump that shard's flight recorder. Fixed durations even
			// in quick mode: the detector needs MissThreshold heartbeat periods
			// plus a rollup tick to observe the dark rack.
			var triggers []string
			dumps := run(sim.Millisecond, 6*sim.Millisecond, fabricWorkers(), 1).Dumps
			for _, dump := range dumps {
				triggers = append(triggers, dump.Trigger)
			}
			return []Line{{strings.Join(triggers, ", "), Metrics{"dumps": float64(len(dumps))}}}
		}
	},
	Cols: []Col{
		{"cell", func(r Row) string {
			switch {
			case r.Axis("cell") != "hops":
				return r.Axis("cell")
			case r.Get("flow") == 1:
				return "flow"
			}
			return fmt.Sprintf("hop %d", r.sub)
		}},
		{"detail", func(r Row) string {
			if r.Axis("cell") == "flight" {
				return "anomaly dumps after killing rack 1's IOhosts"
			}
			return r.Label()
		}},
		{"value", func(r Row) string {
			switch {
			case r.Axis("cell") == "flight":
				return fmt.Sprintf("%s (%s)", d(r.Get("dumps")), r.Label())
			case r.Axis("cell") == "hops":
				return f1(r.Get("µs"))
			case r.Label() == "merged spans":
				return d(r.Get("spans"))
			case r.Get("identical") == 1:
				return "yes"
			}
			return "DIVERGED"
		}},
	},
	Notes: lines(
		"hop/flow rows report span durations in µs; the probe is one guest-to-guest frame whose destination no station drives, so its flow key isolates the request's path.",
		"The spine downlink hop ends at delivery into the remote ToR; the remote IOhyp worker and completion spans pick up from there.",
		"Equivalence compares the three exported artifacts byte for byte between workers=1 and one worker per core.",
	),
}
