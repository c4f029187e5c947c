// Command vrio-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	vrio-experiments -list
//	vrio-experiments -run fig7
//	vrio-experiments -run all [-quick] [-parallel] [-workers N]
//	vrio-experiments -run all -cpuprofile cpu.pprof -memprofile mem.pprof
//	vrio-experiments -trace [-trace-out out.json] [-metrics-interval 500us]
//
// Each experiment runs its fixed grid; a free-form testbed, a spine-leaf
// fabric or a fabric trace is vrio-sim's job.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vrio/internal/experiments"
	"vrio/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the experiments they name and prints their tables to
// stdout. It returns the process exit code: 2 for a bad flag or experiment id.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vrio-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiment ids and exit")
	runIDs := fs.String("run", "all", "experiment id to run, or 'all', or a comma-separated list")
	quick := fs.Bool("quick", false, "shorter runs (lower precision)")
	parallel := fs.Bool("parallel", false, "fan independent simulation cells out across worker goroutines")
	workers := fs.Int("workers", 0, "worker pool size for -parallel (0 = GOMAXPROCS)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	doTrace := fs.Bool("trace", false, "run a traced vRIO netperf+block run and export span/metric artifacts")
	traceOut := fs.String("trace-out", "trace.json", "Chrome trace-event output path for -trace (spans/metrics written alongside)")
	traceSeed := fs.Uint64("trace-seed", 1, "simulation seed for -trace (same seed => byte-identical output)")
	metricsInterval := fs.Duration("metrics-interval", 500*time.Microsecond, "sim-time metrics sampling interval for -trace")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *metricsInterval <= 0 {
		fmt.Fprintln(stderr, "-metrics-interval must be positive")
		return 2
	}

	var err error
	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
	case *doTrace:
		err = writeTrace(stdout, *traceOut, *traceSeed, *metricsInterval)
	default:
		err = runExperiments(stdout, stderr, *runIDs, *quick, *parallel, *workers, *cpuprofile, *memprofile)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return 0
}

// runExperiments runs the comma-separated ids (or every experiment for
// "all") and prints each result table followed by a blank line.
func runExperiments(stdout, stderr io.Writer, run string, quick, parallel bool, workers int, cpuprofile, memprofile string) error {
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
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
		}
	}()

	var results []experiments.Result
	if parallel {
		results = experiments.RunParallel(ids, quick, workers)
	} else {
		for _, id := range ids {
			results = append(results, experiments.Get(id)(quick))
		}
	}
	for _, r := range results {
		fmt.Fprintln(stdout, experiments.Format(r))
	}
	return nil
}

// writeTrace runs the traced vRIO scenario and writes the three artifacts:
// the Chrome trace-event file at outPath, plus the raw span log and the
// metrics timeseries next to it.
func writeTrace(stdout io.Writer, outPath string, seed uint64, interval time.Duration) error {
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
	fmt.Fprintf(stdout, "wrote %s (%d spans, %d still open) — load it in chrome://tracing or ui.perfetto.dev\n",
		outPath, res.Tracer.NumSpans(), res.Tracer.OpenSpans())
	fmt.Fprintf(stdout, "wrote %s (raw span log)\n", spansPath)
	fmt.Fprintf(stdout, "wrote %s (metrics every %v of sim time)\n", metricsPath, interval)
	return nil
}
