package experiments

import (
	"fmt"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/rack"
	"vrio/internal/sim"
	"vrio/internal/stats"
)

// runVolQuorumCell measures quorum write latency and throughput at
// replication factor r (write quorum = majority) across 3 IOhosts.
func runVolQuorumCell(quick bool, r int) Metrics {
	_, dur := durations(quick, 0, 50*sim.Millisecond)
	w := r/2 + 1
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMsPerHost: 2, NumIOhosts: 3,
		VolReplicas: r, VolQuorum: w, VolQueues: 2,
		NoJitter: true, Seed: 921,
	})
	hist := &stats.Histogram{}
	loads := volLoads(tb, hist)
	var doneAtStop uint64
	tb.Eng.At(dur, func() { doneAtStop = halt(loads) })
	tb.Eng.RunUntil(dur)
	tb.Eng.Run() // drain to empty: closed loops stopped, no background tickers

	m := Metrics{"kops/s": float64(doneAtStop) / dur.Seconds() / 1e3}
	addLedgers(m, loads)
	m["R"], m["W"] = float64(r), float64(w)
	m["p50"], m["p99"] = float64(hist.Percentile(50)), float64(hist.Percentile(99))
	return m
}

// runVolRebuildCell crashes IOhost 1 under a striped R=2, W=1 volume at
// the midpoint of a closed-loop write run. The rack controller's heartbeat
// detector declares the death, which triggers the rebuild engine; the cell
// reports foreground p99 before and after the crash, the rebuild's copied
// bytes and bandwidth, and the exactly-once ledger.
func runVolRebuildCell(quick bool, rebuildConc int) Metrics {
	_, dur := durations(quick, 0, 50*sim.Millisecond)
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMsPerHost: 2, NumIOhosts: 3,
		VolReplicas: 2, VolQuorum: 1, VolQueues: 2,
		NoJitter: true, Seed: 922,
	})
	for _, vol := range tb.Volumes {
		vol.RebuildConcurrency = rebuildConc
	}
	ctrl := rack.New(tb, rack.Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3})
	ctrl.Start()

	pre := &stats.Histogram{}
	post := &stats.Histogram{}
	loads := volLoads(tb, pre)

	failT := dur / 2
	tb.Eng.At(failT, func() {
		tb.IOHyps[1].Fail()
		for _, l := range loads {
			l.Latency = post
		}
	})

	// Sample for the rebuild-complete instant: first time every volume is
	// fully replicated again after the crash.
	var fullAt sim.Time = -1
	var sample func()
	sample = func() {
		if tb.Eng.Now() > dur+ftDrain {
			return
		}
		healthy := true
		for _, vol := range tb.Volumes {
			// Before the heartbeat detector fires the router still believes
			// every host is alive, making FullyReplicated trivially true —
			// only samples after the death was observed count.
			if vol.Counters.Get("host_deaths") == 0 ||
				vol.Rebuilding() || !vol.FullyReplicated() {
				healthy = false
				break
			}
		}
		if healthy {
			fullAt = tb.Eng.Now()
			return
		}
		tb.Eng.After(20*sim.Microsecond, sample)
	}
	tb.Eng.At(failT, sample)

	var doneAtStop uint64
	tb.Eng.At(dur, func() { doneAtStop = halt(loads) })
	// The heartbeat ticker never stops, so run to a deadline: the drain past
	// the retransmission budget settles every ledger entry.
	tb.Eng.RunUntil(dur + ftDrain)

	m := Metrics{"kops/s": float64(doneAtStop) / dur.Seconds() / 1e3}
	addLedgers(m, loads)
	m["rbc"], m["pre p99"], m["post p99"] = float64(rebuildConc), float64(pre.Percentile(99)), float64(post.Percentile(99))
	var bytes uint64
	m["healthy"] = 1
	for _, vol := range tb.Volumes {
		bytes += vol.RebuildBytes
		m["rebuilt"] += float64(vol.Counters.Get("rebuild_extents"))
		if vol.Rebuilding() || !vol.FullyReplicated() {
			m["healthy"] = 0
		}
	}
	m["detect"], m["rebuild ms"], m["MB/s"] = -1, 0, 0
	for _, ev := range ctrl.Events {
		if ev.Kind == rack.EventDetect {
			m["detect"] = float64(ev.T-failT) / 1000
			break
		}
	}
	if fullAt >= 0 && m["detect"] >= 0 {
		rebuildDur := fullAt - failT - sim.Time(m["detect"]*1000)
		if rebuildDur > 0 {
			m["rebuild ms"] = float64(rebuildDur) / float64(sim.Millisecond)
			m["MB/s"] = float64(bytes) / 1e6 / (float64(rebuildDur) / float64(sim.Second))
		}
	}
	return m
}

// volRebuild measures the distributed-volume layer (DESIGN.md §16): quorum
// write latency as the replication factor grows, and recovery under load —
// an IOhost crash mid-run on a striped R=2 volume, heartbeat-detected, with
// the rebuild engine re-replicating lost extents while the foreground write
// load keeps flowing, at each rebuild copy concurrency (rbc). Every cell
// audits the exactly-once ledger.
var volRebuild = &Grid{
	ID: "volrebuild",
	Title: "Distributed volumes: quorum write latency vs replication, " +
		"and rebuild under load after an IOhost crash (DESIGN.md §16)",
	Axes: []Axis{axis("cell", "R=1", "R=2", "R=3", "rbc=1", "rbc=2", "rbc=4")},
	Cell: func(quick bool, p Point) []Line {
		var n int
		if _, err := fmt.Sscanf(p["cell"], "R=%d", &n); err == nil {
			return one(runVolQuorumCell(quick, n))
		}
		fmt.Sscanf(p["cell"], "rbc=%d", &n)
		return one(runVolRebuildCell(quick, n))
	},
	Cols: []Col{
		{"cell", func(r Row) string {
			if r.Get("rbc") > 0 {
				return "crash R=2 W=1 rbc=" + d(r.Get("rbc"))
			}
			return fmt.Sprintf("R=%s W=%s", d(r.Get("R")), d(r.Get("W")))
		}},
		num("kops/s", "kops/s", f1), num("p50µs", "p50", orDash(f1)),
		{"p99µs", func(r Row) string {
			if r.Get("rbc") > 0 {
				return fmt.Sprintf("%.1f/%.1f", r.Get("pre p99"), r.Get("post p99"))
			}
			return f1(r.Get("p99"))
		}},
		num("dup", "dup", d), num("never-completed", "never-completed", d), num("errs", "dev errors", d),
		num("rebuilt", "rebuilt", orDash(d)), num("MB/s", "MB/s", orDash(f1)),
		num("healthy", "healthy", orDash(func(v float64) string {
			if v == 1 {
				return "yes"
			}
			return "NO"
		})),
	},
	Notes: func(t *Table) []string {
		last := Point{"cell": "rbc=4"}
		return []string{
			"quorum cells: closed-loop 4 KiB quorum writes, 2 guests x QD8, majority write quorum; p50/p99 is the full guest-observed quorum round trip.",
			"crash cells: IOhost 1 dies at the midpoint; heartbeats detect it and the rebuild engine re-replicates every lost extent onto survivors while the load runs. p99µs shows pre/post-crash foreground latency; rbc is the rebuild copy concurrency.",
			fmt.Sprintf("recovery cells detected the crash in %.0fµs and restored full replication in %.2fms (rbc=%s); dup and never-completed must be 0 everywhere.",
				t.Get(last, "detect"), t.Get(last, "rebuild ms"), d(t.Get(last, "rbc"))),
		}
	},
}
