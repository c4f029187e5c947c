package experiments

import (
	"fmt"
	"strings"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// runMQCell runs one (QD, NQ, workers) point: two guests on one VMhost,
// closed-loop 4 KiB writes for the measured window, then a drain to
// quiescence so the ledger audit sees every completion.
func runMQCell(quick bool, qd, nq, workers int) Metrics {
	_, dur := durations(quick, 0, 20*sim.Millisecond)
	tb := cluster.Build(cluster.Spec{
		Model:           core.ModelVRIO,
		VMsPerHost:      2,
		WithBlock:       true,
		BlkQueues:       nq,
		IOhostSidecores: workers,
		NoJitter:        true, // finite event horizon: the drain runs to empty
		Seed:            911,
	})
	var loads []*workload.MQBlock
	for _, g := range tb.Guests {
		m := workload.NewMQBlock(tb.Eng, g.WriteBlockQ, nq, qd, 4096)
		m.Start()
		loads = append(loads, m)
	}
	var doneAtStop uint64
	tb.Eng.At(dur, func() { doneAtStop = halt(loads) })
	tb.Eng.RunUntil(dur)
	tb.Eng.Run() // drain: closed loops are stopped, so the event set empties

	m := Metrics{"kIOPS": float64(doneAtStop) / dur.Seconds() / 1e3, "deferred": 0, "inflight left": 0}
	addLedgers(m, loads)
	for _, s := range tb.BlockSchedulers {
		m["deferred"] += float64(s.Deferred)
	}
	for _, h := range tb.IOHyps {
		m["inflight left"] += float64(h.BlkInFlight())
	}
	// Queue→worker affinity of guest 0's device, as registered.
	c := tb.VRIOClients[0]
	for q := 0; q < nq && nq > 1; q++ {
		m[fmt.Sprintf("q%d", q)] = float64(tb.IOHyps[tb.ClientIOhost[0]].BlkQueueWorker(c.TransportMAC(), c.BlkDeviceID(), q))
	}
	return m
}

// mqScaling measures the multi-queue block path: NVMe-style queue pairs from
// the guest ring to pinned IOhost workers. The sweep crosses per-queue depth
// (QD), queue count (NQ), and IOhost sidecore workers; every cell runs the
// MQBlock closed loop on each guest and audits its exactly-once ledger. The
// single-queue single-depth cell is the pre-multi-queue baseline (it is
// byte-identical on the wire), so the speedup column is exactly what the
// queue-pair work buys at each worker count.
var mqScaling = &Grid{
	ID:    "mqscaling",
	Title: "Multi-queue block I/O: QD x NQ x IOhost workers, closed-loop 4 KiB writes",
	Axes:  []Axis{axis("workers", "1", "4"), axis("NQ", "1", "2", "4"), axis("QD", "1", "4", "8", "16")},
	Cell: func(quick bool, p Point) []Line {
		return one(runMQCell(quick, p.Int("QD"), p.Int("NQ"), p.Int("workers")))
	},
	Cols: []Col{axisCol("workers"), axisCol("NQ"), axisCol("QD"), num("kIOPS", "kIOPS", f1),
		{"speedup", func(r Row) string { return f2(r.Get("kIOPS")/r.Get("kIOPS", "NQ", "1", "QD", "1")) + "x" }},
		num("deferred", "deferred", d), num("dup", "dup", d), num("lost", "never-completed", d),
		num("errs", "dev errors", d),
		{"q-affinity", func(r Row) string {
			if r.Axis("NQ") == "1" {
				return "dynamic"
			}
			var aff []string
			for q := 0; q < r.p.Int("NQ"); q++ {
				aff = append(aff, fmt.Sprintf("%d:%s", q, d(r.Get(fmt.Sprintf("q%d", q)))))
			}
			return strings.Join(aff, " ")
		}}},
	Notes: lines(
		"speedup is vs the QD=1/NQ=1 cell at the same worker count (the pre-multi-queue baseline)",
		"queue pairs pin to workers round-robin at registration and never migrate (passthrough affinity)",
		"deferred counts cross-queue range conflicts the IOhost scheduler serialized",
	),
}
