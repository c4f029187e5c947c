// Command vriobench is the benchmark of the vRIO reproduction: two
// closed-loop workloads over the simulated rack, and a traced sweep that
// also drives the real-wire transport and times the evaluation suite.
//
//	vriobench -workload net-rr -seed 1 -seconds 30 -trace 0
//	vriobench -compare parent.jsonl change.jsonl
//
// A run repeats its workload's fixed round of work until -seconds have
// passed, checks every output, and prints two JSON lines: a report with
// every metric's unit, base and sample count, the failures by kind and the
// hardware, then the result (correct, attempted, failed and the medians of
// the end-to-end metrics; with -trace 1, the per-layer metrics of a traced
// sweep instead). Each run is also appended to results.jsonl under -out,
// the input of -compare. Run it through run.sh, which builds it and the
// vrio-loadgen server the sweep's wire-blk phase drives.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vrio/internal/sim"
)

// workloadDef is one named workload and why the benchmark has it.
type workloadDef struct {
	Name string
	Why  string
	run  func(*config) (*outcome, error)
}

var workloads = []workloadDef{
	{Name: "net-rr", Why: "netperf RR under optimum, vrio, elvis and baseline: the per-packet path (sim, virtio, nic, link, iohyp forwarding) with the block layers idle", run: runNetRR},
	{Name: "blk-rw", Why: "70/30 random 4 KiB block I/O, NQ4xQD8, over vrio remote, vrio R3/W2 volume, elvis and baseline: all four block pipelines", run: runBlkRW},
}

// scale sizes one round of each workload.
type scale struct {
	rrWarm, rrWindow   sim.Time
	blkWarm, blkWindow sim.Time
	wireWarm, wireReqs int
	minRounds          int
}

// fullScale is the benchmark's size; the self-tests use a smaller one.
var fullScale = scale{
	rrWarm: 2 * sim.Millisecond, rrWindow: 60 * sim.Millisecond,
	blkWarm: 1 * sim.Millisecond, blkWindow: 40 * sim.Millisecond,
	wireWarm: 2000, wireReqs: 30000,
	minRounds: 3,
}

type config struct {
	seed    uint64
	budget  time.Duration
	loadgen string
	outDir  string
	workers int
	sc      scale
	// corrupt, when set, damages the data the benchmark's verifiers check
	// (the self-tests use it to prove the checks count failures).
	corrupt func([]byte)
}

// pacer paces a run's rounds: after the first minRounds, another round
// starts only if one as long as the last still ends within the budget.
type pacer struct {
	start, last time.Time
	budget      time.Duration
	min, n      int
}

func (c *config) pacer() *pacer {
	now := time.Now()
	return &pacer{start: now, last: now, budget: c.budget, min: c.sc.minRounds}
}

func (p *pacer) next() bool {
	now := time.Now()
	last := now.Sub(p.last)
	p.last = now
	if p.n >= p.min && now.Sub(p.start)+last > p.budget {
		return false
	}
	p.n++
	return true
}

// reportMetric is one metric of the report line.
type reportMetric struct {
	Name      string      `json:"name"`
	Value     float64     `json:"value"`
	Unit      string      `json:"unit"`
	Samples   int         `json:"samples"`
	Base      string      `json:"base"`
	Quartiles *[3]float64 `json:"quartiles,omitempty"`
}

// outcome is what one workload run measured and checked.
type outcome struct {
	vals      map[string][]float64 // end-to-end metric -> value per round
	attempted uint64
	failures  map[string]uint64
	details   []reportMetric
	notes     map[string]any
}

func newOutcome() *outcome {
	return &outcome{vals: map[string][]float64{}, failures: map[string]uint64{}, notes: map[string]any{}}
}

func (o *outcome) add(name string, v float64) { o.vals[name] = append(o.vals[name], v) }

// roundTimes sums a round's set-up and measured-phase pieces, raw and in
// reference seconds.
type roundTimes struct {
	setup, wall, rawSetup, rawWall, refs float64
	pieces                               int
}

// add counts one piece of set-up and measured time, both measured between
// the same two references (ref is their mean).
func (t *roundTimes) add(setup, wall, ref float64) {
	t.rawSetup += setup
	t.rawWall += wall
	t.setup += refSeconds(setup, ref)
	t.wall += refSeconds(wall, ref)
	t.refs += ref
	t.pieces++
}

// addTimes records a round's times, keeping the raw seconds and the mean
// reference beside the reference seconds.
func (o *outcome) addTimes(t roundTimes) {
	o.add("ref_s", t.refs/float64(t.pieces))
	o.add("raw.setup_s", t.rawSetup)
	o.add("raw.wall_s", t.rawWall)
	o.add("setup_s", t.setup)
	o.add("wall_s", t.wall)
}
func (o *outcome) numRounds() int         { return len(o.vals["setup_s"]) }
func (o *outcome) note(key string, v any) { o.notes[key] = v }

func (o *outcome) fail(kind string, n uint64) {
	if n > 0 {
		o.failures[kind] += n
	}
}

func (o *outcome) failed() uint64 {
	var n uint64
	for _, v := range o.failures {
		n += v
	}
	return n
}

// detail reports an end-to-end series under its own name.
func (o *outcome) detail(name, unit, base string) {
	o.detailFrom(name, name, 1, unit, o.numRounds(), base)
}

// detailFrom reports the median of a per-round series, scaled.
func (o *outcome) detailFrom(name, series string, scale float64, unit string, samples int, base string) {
	q := quartiles(o.vals[series])
	for i := range q {
		q[i] *= scale
	}
	o.details = append(o.details, reportMetric{Name: name, Value: median(o.vals[series]) * scale, Unit: unit, Samples: samples, Base: base, Quartiles: &q})
}

func (o *outcome) detailValue(name string, v float64, unit string, samples int, base string) {
	o.details = append(o.details, reportMetric{Name: name, Value: v, Unit: unit, Samples: samples, Base: base})
}

// metricValue and result are the benchmark's last output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hardware is recorded with every result, so results from different
// machines are never compared unknowingly.
type hardware struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostHardware() hardware {
	h := hardware{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// record is one run as kept in results.jsonl.
type record struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Trace    int                  `json:"trace"`
	Seconds  int                  `json:"seconds"`
	Hardware hardware             `json:"hardware"`
	Rounds   map[string][]float64 `json:"rounds,omitempty"`
	Result   result               `json:"result"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vriobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: net-rr or blk-rw")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	secs := fs.Int("seconds", runSeconds, "how long the run measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced sweep")
	loadgen := fs.String("loadgen", ".bench_build/bin/vrio-loadgen", "vrio-loadgen binary wire-blk starts as its server")
	out := fs.String("out", ".bench_build/vriobench", "directory for results.jsonl, spans and profiles")
	compare := fs.Bool("compare", false, "compare two results.jsonl files: parent, then change")
	spec := fs.Bool("spec", false, "print BENCHMARK.json from the benchmark's tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *spec:
		return writeSpec(stdout, stderr)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "vriobench: -compare takes two results.jsonl files (parent, change)")
			return 2
		}
		if err := runCompare(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "vriobench:", err)
			return 1
		}
		return 0
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].Name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || (*traced != 0 && *traced != 1) || *secs < 1 {
		fmt.Fprintf(stderr, "vriobench: need -workload (one of %s), -trace 0|1 and -seconds >= 1\n", workloadNames())
		return 2
	}
	cfg := &config{
		seed: *seed, budget: time.Duration(*secs) * time.Second,
		loadgen: *loadgen, outDir: *out, workers: runtime.GOMAXPROCS(0), sc: fullScale,
	}
	return execute(cfg, wl, *traced, stdout, stderr)
}

// execute runs one workload (traced == 0) or the traced sweep (traced ==
// 1), records it, and prints the report and result lines.
func execute(cfg *config, wl *workloadDef, traced int, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "vriobench:", err)
		return 1
	}

	var o *outcome
	var err error
	var metrics map[string]metricValue
	if traced == 1 {
		var layers map[string]float64
		o, layers, err = runLayers(cfg, wl.Name)
		if err == nil {
			metrics = pick(perLayer, layers)
		}
	} else {
		o, err = wl.run(cfg)
		if err == nil {
			o.detail("raw.setup_s", "s", "set-up in wall seconds, median over rounds")
			o.detail("raw.wall_s", "s", "measured phase in wall seconds, median over rounds")
			o.detail("ref_s", "s", "reference loop time around each round, median over rounds")
			medians := map[string]float64{}
			for k, v := range o.vals {
				medians[k] = median(v)
			}
			metrics = pick(endToEnd, medians)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "vriobench:", err)
		return 1
	}
	res := result{Correct: o.failed() == 0, Attempted: o.attempted, Failed: o.failed(), Metrics: metrics}
	if res.Attempted == 0 {
		fmt.Fprintln(stderr, "vriobench: no operation was attempted")
		return 1
	}
	rate := float64(res.Failed) / float64(res.Attempted)
	o.detailValue("error_rate", rate, "ratio", int(res.Attempted), "failed / attempted operations")

	hw := hostHardware()
	secs := int(cfg.budget / time.Second)
	report := map[string]any{
		"workload": wl.Name, "seed": cfg.seed, "trace": traced, "seconds": secs,
		"rounds": o.numRounds(), "hardware": hw, "metrics": o.details,
		"failures": o.failures, "notes": o.notes,
	}
	rec := record{Workload: wl.Name, Seed: cfg.seed, Trace: traced, Seconds: secs, Hardware: hw, Result: res}
	if traced == 0 {
		rec.Rounds = o.vals
	}
	if err := appendRecord(filepath.Join(cfg.outDir, "results.jsonl"), rec); err != nil {
		fmt.Fprintln(stderr, "vriobench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		fmt.Fprintln(stderr, "vriobench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "vriobench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.Name)
	}
	return strings.Join(n, ", ")
}

// pick returns exactly the metrics defs names, with their units.
func pick(defs []metricDef, vals map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return m
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// writeSpec prints BENCHMARK.json as the tables above define it.
func writeSpec(stdout, stderr io.Writer) int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "vriobench/run.sh"}, Paths: []string{"vriobench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "vriobench:", err)
		return 1
	}
	if _, err := stdout.Write(append(b, '\n')); err != nil {
		return 1
	}
	return 0
}

// runSeconds is BENCHMARK.json's run_seconds: the -seconds the benchmark
// is meant to run with.
const runSeconds = 30
