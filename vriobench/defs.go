package main

// metricDef is one reported metric. BENCHMARK.json at the repository root
// lists the same names, units and directions (TestBenchmarkJSONMatches
// keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Base says what a per-layer metric counts or times, and over which
	// operations; Target names the end-to-end metric, and the workload,
	// that it should move.
	Base, Target string
}

// endToEnd is what a user of the reproduction sees. Every workload reports
// every metric; what "one operation" is differs by workload:
//
//	net-rr  one RR transaction on the vRIO testbed
//	blk-rw  one block op on the vRIO remote-device testbed
//
// p50_us, p99_us and kops (thousands of ops per simulated second) are in
// simulated time, the model's claim, exact per seed; setup_s and wall_s
// are in reference seconds (see refNominal).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.05},
	{Name: "p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "kops", Unit: "kops/s", Better: "higher", Bound: 0.05},
}

// experimentIDs are the quick-suite experiments timed one by one in the
// traced run, in registration order.
var experimentIDs = []string{
	"ablation-mtu", "ablation-rxring", "ablation-retransmit", "ablation-steering",
	"fig14", "fig15", "fig16a", "fig16b", "fig1", "table1", "table2", "fig3",
	"tablerack", "migration", "failover", "energy", "fabricscaling", "fabrictrace",
	"faulttolerance", "mqscaling", "table3", "fig5", "fig7", "fig8", "fig9",
	"fig10", "fig11", "table4", "fig12", "fig13", "heterogeneity", "rackscaling",
	"volrebuild",
}

// profiledPackages are the packages whose share of host CPU samples the
// traced run reports (innermost frame, so each sample counts once).
var profiledPackages = []string{
	"sim", "virtio", "nic", "ethernet", "link", "transport", "bufpool", "iohyp",
	"core", "blockdev", "interpose", "netwire", "trace", "stats", "runtime",
}

// perLayer is what the traced run reports, each metric measured from
// outside the program: timing of the public calls the benchmark makes,
// counters and gauges the program already keeps, the existing trace spans,
// and a CPU profile.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	l := []metricDef{
		{Name: "cluster.build_s", Unit: "s", Better: "lower", Base: "mean cluster.Build per testbed, untraced net-rr and blk-rw testbeds", Target: "setup_s on net-rr, blk-rw"},
		{Name: "sim.events", Unit: "count", Better: "lower", Base: "Engine.Executed over one net-rr round (four testbeds)", Target: "wall_s on net-rr, blk-rw"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Base: "untraced net-rr time per executed event in reference ns, median over rounds", Target: "wall_s on net-rr"},
		{Name: "sim.shard_run_s", Unit: "s", Better: "lower", Base: "experiments.FabricBenchRun(quick) on nproc shard workers", Target: "quick-suite wall time (the traced run's eval-quick phase)"},
		{Name: "sim.shard_speedup", Unit: "ratio", Better: "higher", Base: "FabricBenchRun at 1 worker / at nproc workers; 0 = unmeasured (1 CPU)", Target: "quick-suite wall time (the traced run's eval-quick phase)"},
		{Name: "virtio.guest_ring_sim_us", Unit: "us", Better: "lower", Base: "mean guest_ring span, vrio net-rr testbed", Target: "p50_us on net-rr"},
		{Name: "transport.wire_sim_us", Unit: "us", Better: "lower", Base: "mean transport_wire span, vrio blk-rw testbed", Target: "p50_us on blk-rw"},
		{Name: "transport.retransmits", Unit: "count", Better: "lower", Base: "Driver retransmits: vrio net-rr and blk-rw testbeds plus one wire-blk round", Target: "p99_us on net-rr; request latency in the traced wire-blk phase"},
		{Name: "transport.submit_ns", Unit: "ns", Better: "lower", Base: "host ns per Driver.SendBlkQ call, carrier send excluded, wire-blk", Target: "request latency and rate in the traced wire-blk phase"},
		{Name: "transport.deliver_ns", Unit: "ns", Better: "lower", Base: "host ns per Driver.Deliver call, completion callback excluded, wire-blk", Target: "request latency and rate in the traced wire-blk phase"},
		{Name: "nic.tx_frames_per_op", Unit: "frames/op", Better: "lower", Base: "vm<i>-vf tx_frames per RR transaction, vrio net-rr testbed", Target: "wall_s, p99_us on net-rr"},
		{Name: "nic.drops", Unit: "count", Better: "lower", Base: "vm<i>-vf drops, vrio net-rr testbed", Target: "wall_s, p99_us on net-rr"},
		{Name: "link.forwarded_per_op", Unit: "frames/op", Better: "lower", Base: "switch frames forwarded per RR transaction, vrio net-rr testbed", Target: "p99_us on net-rr"},
		{Name: "link.drops", Unit: "count", Better: "lower", Base: "switch drops of every reason, vrio net-rr testbed", Target: "p99_us on net-rr"},
		{Name: "iohyp.worker_sim_us", Unit: "us", Better: "lower", Base: "mean iohyp_worker span, vrio net-rr testbed", Target: "p50_us on net-rr, blk-rw"},
		{Name: "iohyp.utilization", Unit: "ratio", Better: "lower", Base: "iohyp sidecore utilization gauge, vrio net-rr testbed", Target: "kops on net-rr, blk-rw"},
		{Name: "iohyp.msgs_per_op", Unit: "msgs/op", Better: "lower", Base: "iohyp msgs per RR transaction, vrio net-rr testbed", Target: "kops on net-rr, blk-rw"},
		{Name: "iohyp.channel_drops", Unit: "count", Better: "lower", Base: "iohyp channel_drops, vrio net-rr testbed", Target: "kops on net-rr, blk-rw"},
		{Name: "iohyp.sidecore_wait_p99_sim_us", Unit: "us", Better: "lower", Base: "p99 of the merged sidecore<i> wait_ns histograms, vrio net-rr testbed", Target: "p99_us on net-rr"},
		{Name: "core.completion_sim_us", Unit: "us", Better: "lower", Base: "mean completion span, vrio net-rr testbed", Target: "p50_us on net-rr"},
		{Name: "core.submit_ns", Unit: "ns", Better: "lower", Base: "host ns per Guest.WriteBlockQ/ReadBlockQ call, vrio blk-rw testbed", Target: "wall_s on blk-rw"},
	}
	for _, m := range []string{"optimum", "vrio", "elvis", "baseline"} {
		l = append(l, metricDef{Name: "core." + m + ".events_per_op", Unit: "events/op", Better: "lower",
			Base: "Table 3 exits and interrupts per RR transaction in the window, " + m + " net-rr testbed", Target: "p50_us on net-rr"})
	}
	for _, m := range []string{"optimum", "elvis", "baseline"} {
		l = append(l, metricDef{Name: "core." + m + ".sim_p99_us", Unit: "us", Better: "lower",
			Base: "RR p99, " + m + " net-rr testbed", Target: "none: a reference model that p99_us on net-rr must not move"})
	}
	l = append(l,
		metricDef{Name: "core.volume.read_p99_sim_us", Unit: "us", Better: "lower", Base: "read p99, vrio-volume blk-rw testbed", Target: "p99_us on blk-rw"},
		metricDef{Name: "core.volume.write_p99_sim_us", Unit: "us", Better: "lower", Base: "write p99, vrio-volume blk-rw testbed", Target: "p99_us on blk-rw"},
		metricDef{Name: "core.volume.write_nacks", Unit: "count", Better: "lower", Base: "VolumeRouter write_nacks, vrio-volume blk-rw testbed", Target: "failed ops on blk-rw"},
		metricDef{Name: "core.volume.read_retries", Unit: "count", Better: "lower", Base: "VolumeRouter read_retries, vrio-volume blk-rw testbed", Target: "failed ops on blk-rw"},
		metricDef{Name: "core.volume.quorum_losses", Unit: "count", Better: "lower", Base: "VolumeRouter quorum_losses, vrio-volume blk-rw testbed", Target: "failed ops on blk-rw"},
		metricDef{Name: "blockdev.sim_us", Unit: "us", Better: "lower", Base: "mean blockdev span, vrio blk-rw testbed", Target: "p99_us on blk-rw"},
		metricDef{Name: "blockdev.deferred", Unit: "count", Better: "lower", Base: "range-conflict scheduler deferrals, vrio blk-rw testbed", Target: "p99_us on blk-rw"},
		metricDef{Name: "blockdev.served", Unit: "count", Better: "higher", Base: "device requests served, vrio blk-rw testbed", Target: "kops on blk-rw"},
		metricDef{Name: "bufpool.misses", Unit: "count", Better: "lower", Base: "driver Pool.Stats.Misses over the measured quota of one wire-blk round", Target: "allocation in the traced wire-blk phase"},
		metricDef{Name: "netwire.send_ns", Unit: "ns", Better: "lower", Base: "host ns per UDPCarrier.Send, wire-blk", Target: "request rate in the traced wire-blk phase"},
		metricDef{Name: "netwire.drops", Unit: "count", Better: "lower", Base: "driver carrier DropStats over the measured quota of one wire-blk round", Target: "tail latency and failed ops in the traced wire-blk phase"},
		metricDef{Name: "trace.spans", Unit: "count", Better: "lower", Base: "Tracer.NumSpans over one traced net-rr and blk-rw round", Target: "wall_s on net-rr, blk-rw (tracing off stays free)"},
		metricDef{Name: "trace.overhead", Unit: "ratio", Better: "lower", Base: "traced / untraced wall time - 1, median over net-rr and blk-rw rounds", Target: "wall_s on net-rr, blk-rw (tracing off stays free)"},
	)
	for _, id := range experimentIDs {
		l = append(l, metricDef{Name: "experiments." + id + ".wall_s", Unit: "s", Better: "lower",
			Base: "experiments.Get(" + id + ")(quick), serial", Target: "quick-suite wall time (the traced run's eval-quick phase)"})
	}
	l = append(l, metricDef{Name: "experiments.parallel_efficiency", Unit: "ratio", Better: "higher",
		Base: "sum of serial per-experiment wall_s / (nproc x RunAllParallel wall_s); 0 = unmeasured (1 CPU)", Target: "quick-suite wall time (the traced run's eval-quick phase)"})
	for _, p := range profiledPackages {
		l = append(l, metricDef{Name: p + ".host_self_share", Unit: "ratio", Better: "lower",
			Base: "share of CPU samples with the innermost frame in " + p + ", in the sweep phase where it peaks", Target: "wall_s or kops on the workload of that phase"})
	}
	return l
}
