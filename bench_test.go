// Benchmark harness: one testing.B benchmark per paper table and figure,
// plus the DESIGN.md ablations. Each benchmark regenerates its experiment
// (quick mode) and reports the headline quantity as custom metrics, so
//
//	go test -bench=. -benchmem
//
// re-derives the paper's evaluation end to end. The full-length versions
// (paper-scale durations) run via: go run ./cmd/vrio-experiments -run all
package vrio_test

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"vrio"
	"vrio/internal/experiments"
)

// runExperiment executes a registered experiment b.N times (quick mode) and
// reports how many result rows it produced.
func runExperiment(b *testing.B, id string) experiments.Result {
	b.Helper()
	r := experiments.Get(id)
	if r == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		last = r(true)
	}
	if len(last.Rows) == 0 {
		b.Fatalf("%s produced no rows", id)
	}
	b.ReportMetric(float64(len(last.Rows)), "rows")
	return last
}

// cell parses a numeric cell from an experiment row.
func cell(b *testing.B, res experiments.Result, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(res.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("%s cell (%d,%d) = %q: %v", res.ID, row, col, res.Rows[row][col], err)
	}
	return v
}

// --- §3: cost model ---

func BenchmarkFig1CostModel(b *testing.B)        { runExperiment(b, "fig1") }
func BenchmarkTable1ServerPricing(b *testing.B)  { runExperiment(b, "table1") }
func BenchmarkTable2RackPricing(b *testing.B)    { runExperiment(b, "table2") }
func BenchmarkFig3SSDConsolidation(b *testing.B) { runExperiment(b, "fig3") }

// --- §5: evaluation ---

func BenchmarkTable3EventCounts(b *testing.B) {
	res := runExperiment(b, "table3")
	// Report the headline sums (paper: 2 / 2 / 4 / 6 / 9).
	for i, name := range []string{"optimum", "vrio", "elvis", "vrio-nopoll", "baseline"} {
		b.ReportMetric(cell(b, res, i, 6), "events/rr-"+name)
	}
}

func BenchmarkFig5ApachePolling(b *testing.B) { runExperiment(b, "fig5") }

func BenchmarkFig7NetperfRRLatency(b *testing.B) {
	res := runExperiment(b, "fig7")
	last := len(res.Rows) - 1
	b.ReportMetric(cell(b, res, 0, 4), "optimum-n1-us")
	b.ReportMetric(cell(b, res, 0, 2), "vrio-n1-us")
	b.ReportMetric(cell(b, res, last, 2), "vrio-max-us")
}

func BenchmarkFig8VrioContention(b *testing.B) { runExperiment(b, "fig8") }

func BenchmarkFig9StreamThroughput(b *testing.B) {
	res := runExperiment(b, "fig9")
	last := len(res.Rows) - 1
	b.ReportMetric(cell(b, res, last, 1), "optimum-gbps")
	b.ReportMetric(cell(b, res, last, 3), "vrio-gbps")
}

func BenchmarkFig10CyclesPerPacket(b *testing.B) {
	res := runExperiment(b, "fig10")
	b.ReportMetric(cell(b, res, 0, 1), "optimum-ns-per-chunk")
}

func BenchmarkFig11EqualCores(b *testing.B)      { runExperiment(b, "fig11") }
func BenchmarkTable4TailLatency(b *testing.B)    { runExperiment(b, "table4") }
func BenchmarkFig12Macrobenchmarks(b *testing.B) { runExperiment(b, "fig12") }

func BenchmarkFig13IOhostScalability(b *testing.B) { runExperiment(b, "fig13") }

func BenchmarkFig14FilebenchRamdisk(b *testing.B)    { runExperiment(b, "fig14") }
func BenchmarkFig15SidecoreUtilization(b *testing.B) { runExperiment(b, "fig15") }
func BenchmarkFig16aConsolidation(b *testing.B)      { runExperiment(b, "fig16a") }
func BenchmarkFig16bImbalance(b *testing.B)          { runExperiment(b, "fig16b") }
func BenchmarkHeterogeneity(b *testing.B)            { runExperiment(b, "heterogeneity") }

// --- §4.6 extensions (designed in the paper, implemented here) ---

func BenchmarkMigration(b *testing.B) { runExperiment(b, "migration") }
func BenchmarkFailover(b *testing.B)  { runExperiment(b, "failover") }
func BenchmarkEnergy(b *testing.B)    { runExperiment(b, "energy") }

// --- DESIGN.md §6 ablations ---

func BenchmarkAblationMTU(b *testing.B)        { runExperiment(b, "ablation-mtu") }
func BenchmarkAblationRxRing(b *testing.B)     { runExperiment(b, "ablation-rxring") }
func BenchmarkAblationRetransmit(b *testing.B) { runExperiment(b, "ablation-retransmit") }
func BenchmarkAblationSteering(b *testing.B)   { runExperiment(b, "ablation-steering") }

// --- spine-leaf fabric: sharded parallel simulation ---

func BenchmarkFabricScaling(b *testing.B) { runExperiment(b, "fabricscaling") }

// BenchmarkFabricSharded runs the 16-rack cross-rack workload under the
// conservative shard coordinator at 1 and GOMAXPROCS workers; the wall-clock
// ratio is what vriobench's traced run reports as sim.shard_speedup.
func BenchmarkFabricSharded(b *testing.B) {
	for _, c := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"maxprocs", runtime.GOMAXPROCS(0)}} {
		b.Run(c.name, func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				events = experiments.FabricBenchRun(true, c.workers)
			}
			b.ReportMetric(float64(events), "sim-events/op")
		})
	}
}

// --- full-evaluation benchmarks: serial vs parallel scheduler ---

// BenchmarkRunAllSerial regenerates the entire evaluation (quick mode)
// on one goroutine, experiment by experiment.
func BenchmarkRunAllSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunAll(true)
		if len(res) == 0 {
			b.Fatal("RunAll produced no results")
		}
	}
}

// BenchmarkRunAllParallel regenerates the entire evaluation with every
// experiment's independent cells fanned out across GOMAXPROCS workers.
// Output is byte-identical to the serial run (see
// experiments.TestParallelMatchesSerialByteIdentical); only wall clock
// changes.
func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunAllParallel(true, 0)
		if len(res) == 0 {
			b.Fatal("RunAllParallel produced no results")
		}
	}
}

// --- raw datapath benchmarks (simulation engine throughput) ---

// BenchmarkSimulatedRR measures how fast the simulator itself executes one
// request-response testbed: simulated transactions per wall second.
func BenchmarkSimulatedRR(b *testing.B) {
	for _, model := range []vrio.Model{vrio.ModelOptimum, vrio.ModelVRIO, vrio.ModelElvis, vrio.ModelBaseline} {
		b.Run(string(model), func(b *testing.B) {
			var ops uint64
			for i := 0; i < b.N; i++ {
				tb := vrio.NewTestbed(vrio.Config{Model: model, VMs: 2, Seed: uint64(i)})
				res := tb.RunNetperfRR(5 * time.Millisecond)
				ops += res.Ops
			}
			b.ReportMetric(float64(ops)/float64(b.N), "sim-txns/op")
		})
	}
}
