// Command vrio-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	vrio-experiments -list
//	vrio-experiments -run fig7
//	vrio-experiments -run all [-quick] [-parallel] [-workers N]
//	vrio-experiments -run fabricscaling [-racks 32] [-shards 8] [-oversub 8]
//	vrio-experiments -run all -cpuprofile cpu.pprof -memprofile mem.pprof
//	vrio-experiments -trace [-trace-out out.json] [-metrics-interval 500us]
//	vrio-experiments -trace -racks 4 [-shards 2]    # traced spine-leaf fabric
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vrio/internal/experiments"
	"vrio/internal/fault"
	"vrio/internal/sim"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	run := flag.String("run", "all", "experiment id to run, or 'all', or a comma-separated list")
	quick := flag.Bool("quick", false, "shorter runs (lower precision)")
	parallel := flag.Bool("parallel", false, "fan independent simulation cells out across worker goroutines")
	workers := flag.Int("workers", 0, "worker pool size for -parallel (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	doTrace := flag.Bool("trace", false, "run a traced vRIO netperf+block run and export span/metric artifacts")
	traceOut := flag.String("trace-out", "trace.json", "Chrome trace-event output path for -trace (spans/metrics written alongside)")
	traceSeed := flag.Uint64("trace-seed", 1, "simulation seed for -trace (same seed => byte-identical output)")
	metricsInterval := flag.Duration("metrics-interval", 500*time.Microsecond, "sim-time metrics sampling interval for -trace")
	faultProfile := flag.String("fault-profile", "", "extra fault profile for the faulttolerance sweep: lossy | flaky | degraded | chaos, or inline JSON")
	faultSeed := flag.Uint64("fault-seed", 0, "override the faulttolerance fault-draw seed (0 = built-in default)")
	volReplicas := flag.Int("vol-replicas", 0, "override the volrebuild recovery cells' replication factor (0 = experiment default, R=2)")
	volQuorum := flag.Int("vol-quorum", 0, "override the volrebuild recovery cells' write quorum (0 = experiment default, W=1)")
	racks := flag.Int("racks", 0, "override the fabricscaling scale cell's rack count (0 = experiment default)")
	shards := flag.Int("shards", 0, "worker count for sharded fabric execution (0 = one per CPU)")
	oversub := flag.Float64("oversub", 0, "override the fabricscaling scale cell's ToR oversubscription ratio (0 = experiment default)")
	flag.Parse()

	prof, err := fault.ParseProfile(*faultProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	experiments.SetFaultOptions(prof, *faultSeed)
	experiments.SetFabricOptions(*racks, *shards, *oversub)
	experiments.SetVolOptions(*volReplicas, *volQuorum)

	if err := realMain(*list, *run, *quick, *parallel, *workers, *cpuprofile, *memprofile,
		*doTrace, *traceOut, *traceSeed, *metricsInterval, *racks, *shards); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func realMain(list bool, run string, quick, parallel bool, workers int, cpuprofile, memprofile string,
	doTrace bool, traceOut string, traceSeed uint64, metricsInterval time.Duration, racks, shards int) error {
	if list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	if doTrace {
		if racks > 1 {
			return writeFabricTrace(traceOut, traceSeed, metricsInterval, racks, shards)
		}
		return writeTrace(traceOut, traceSeed, metricsInterval)
	}

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if memprofile == "" {
			return
		}
		f, err := os.Create(memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
	}()

	var ids []string
	if run == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(run, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	for _, id := range ids {
		if experiments.Get(id) == nil {
			return fmt.Errorf("unknown experiment %q; use -list", id)
		}
	}

	var results []experiments.Result
	if parallel {
		results = experiments.RunParallel(ids, quick, workers)
	} else {
		for _, id := range ids {
			results = append(results, experiments.Get(id)(quick))
		}
	}
	for _, r := range results {
		fmt.Print(experiments.Format(r))
		fmt.Println()
	}
	return nil
}

// writeTrace runs the traced vRIO scenario and writes the three artifacts:
// the Chrome trace-event file at outPath, plus the raw span log and the
// metrics timeseries next to it.
func writeTrace(outPath string, seed uint64, interval time.Duration) error {
	res, err := experiments.TraceRun(seed, sim.Time(interval.Nanoseconds()))
	if err != nil {
		return err
	}
	base := strings.TrimSuffix(outPath, ".json")
	spansPath := base + ".spans.jsonl"
	metricsPath := base + ".metrics.jsonl"
	if err := os.WriteFile(outPath, res.Chrome, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(spansPath, res.Spans, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(metricsPath, res.Metrics, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d spans, %d still open) — load it in chrome://tracing or ui.perfetto.dev\n",
		outPath, res.Tracer.NumSpans(), res.Tracer.OpenSpans())
	fmt.Printf("wrote %s (raw span log)\n", spansPath)
	fmt.Printf("wrote %s (metrics every %v of sim time)\n", metricsPath, interval)
	return nil
}

// writeFabricTrace runs the traced spine-leaf fabric scenario (-trace with
// -racks > 1) and writes the merged cross-shard artifacts: the span export,
// the fabric-wide rollup metrics stream, and the anomaly dump stream, then
// prints the probe request's hop walk and the vrio-top summary table.
func writeFabricTrace(outPath string, seed uint64, interval time.Duration, racks, shards int) error {
	if shards <= 0 {
		shards = runtime.NumCPU()
	}
	res, err := experiments.FabricTraceRun(seed, sim.Time(interval.Nanoseconds()), racks, shards)
	if err != nil {
		return err
	}
	base := strings.TrimSuffix(outPath, ".json")
	for _, art := range []struct {
		suffix string
		data   []byte
	}{
		{".spans.jsonl", res.Spans},
		{".metrics.jsonl", res.Metrics},
		{".anomalies.jsonl", res.Anomalies},
	} {
		path := base + art.suffix
		if err := os.WriteFile(path, art.data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	fmt.Printf("%d merged spans across %d racks; probe flow:\n", res.NumSpans, racks)
	for i, h := range res.Hops {
		if i >= 8 {
			fmt.Printf("  ... %d more hops (the probe ping-pongs for the rest of the run)\n", len(res.Hops)-i)
			break
		}
		fmt.Printf("  %s %s shard=%d [%v..%v]\n", h.Cat, h.Name, h.Shard,
			time.Duration(h.Start), time.Duration(h.End))
	}
	fmt.Println()
	fmt.Print(res.Summary)
	return nil
}
