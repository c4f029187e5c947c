package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"vrio/internal/experiments"
	"vrio/internal/sim"
)

// loadgenPath is the vrio-loadgen binary TestMain builds for wire-blk.
var loadgenPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "vriobench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	loadgenPath = filepath.Join(dir, "vrio-loadgen")
	build := exec.Command("go", "build", "-o", loadgenPath, "vrio/cmd/vrio-loadgen")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build vrio-loadgen:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// testScale makes each workload one short round.
var testScale = scale{
	rrWarm: sim.Millisecond, rrWindow: 5 * sim.Millisecond,
	blkWarm: sim.Millisecond, blkWindow: 3 * sim.Millisecond,
	wireWarm: 100, wireReqs: 500,
	minRounds: 1,
}

func testConfig(t *testing.T) *config {
	return &config{seed: 7, loadgen: loadgenPath, outDir: t.TempDir(), workers: runtime.GOMAXPROCS(0), sc: testScale}
}

func workloadByName(t *testing.T, name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// lastLine runs execute and decodes its two output lines.
func lastLine(t *testing.T, cfg *config, wl *workloadDef, traced int) (map[string]any, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := execute(cfg, wl, traced, &out, &errOut); code != 0 {
		t.Fatalf("%s: exit %d: %s", wl.Name, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: want a report and a result line, got %d lines", wl.Name, len(lines))
	}
	var rep struct {
		Report map[string]any `json:"report"`
	}
	var res result
	if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(lines[1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	return rep.Report, res
}

// checkMetrics asserts the result carries exactly defs, with their units.
func checkMetrics(t *testing.T, name string, defs []metricDef, got map[string]metricValue, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s unit %q, want %q", name, d.Name, m.Unit, d.Unit)
		case nonZero && (m.Value <= 0 || math.IsNaN(m.Value)):
			t.Errorf("%s: %s = %v, want > 0", name, d.Name, m.Value)
		}
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			rep, res := lastLine(t, testConfig(t), workloadByName(t, wl.Name), 0)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d failures=%v", res.Correct, res.Attempted, res.Failed, rep["failures"])
			}
			checkMetrics(t, wl.Name, endToEnd, res.Metrics, true)
			details, _ := rep["metrics"].([]any)
			seen := map[string]bool{}
			for _, d := range details {
				m := d.(map[string]any)
				seen[m["name"].(string)] = true
				if m["unit"] == "" || m["samples"].(float64) < 1 {
					t.Errorf("report metric %v lacks a unit or a sample count", m)
				}
			}
			for _, name := range []string{"setup_s", "alloc_mb", "error_rate"} {
				if !seen[name] {
					t.Errorf("report lacks %s", name)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	cfg := testConfig(t)
	rep, res := lastLine(t, cfg, workloadByName(t, "net-rr"), 1)
	if !res.Correct {
		t.Fatalf("traced sweep failed: %v", rep["failures"])
	}
	checkMetrics(t, "trace", perLayer, res.Metrics, false)
	for _, name := range []string{"sim.events", "trace.spans", "cluster.build_s", "transport.submit_ns", "experiments.volrebuild.wall_s"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	for _, f := range []string{"spans-net-rr", "spans-blk-rw", "cpu-net-rr", "cpu-eval-quick"} {
		if m, _ := filepath.Glob(filepath.Join(cfg.outDir, f+"-seed7.*")); len(m) != 1 {
			t.Errorf("traced run wrote no %s file", f)
		}
	}
}

func corruptingConfig(t *testing.T) *config {
	cfg := testConfig(t)
	cfg.corrupt = func(b []byte) { b[len(b)/2] ^= 0x40 }
	return cfg
}

func TestReadVerifierCountsCorruption(t *testing.T) {
	o, err := workloadByName(t, "blk-rw").run(corruptingConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if o.failures["blk_read_mismatch"] == 0 || o.failed() == 0 {
		t.Fatalf("corrupted reads: failures %v, want blk_read_mismatch", o.failures)
	}
}

func TestDigestCheckCountsCorruption(t *testing.T) {
	r, err := runWireRound(corruptingConfig(t), false)
	if err != nil {
		t.Fatal(err)
	}
	if r.cell.mismatches == 0 {
		t.Fatal("corrupted echoes passed the SHA-256 check")
	}
}

func TestSameTranscript(t *testing.T) {
	rs := []experiments.Result{{ID: "a", Title: "t", Header: []string{"x"}, Rows: [][]string{{"1"}}}}
	if _, same := sameTranscript(rs, rs, nil); !same {
		t.Error("identical results reported as different")
	}
	corrupt := func(b []byte) { b[len(b)/2] ^= 0x40 }
	if _, same := sameTranscript(rs, rs, corrupt); same {
		t.Error("a corrupted transcript passed the check")
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec bytes.Buffer
	if code := writeSpec(&spec, os.Stderr); code != 0 {
		t.Fatal("writeSpec failed")
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(spec.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("BENCHMARK.json differs from the benchmark's tables; regenerate it with -spec")
	}
	for _, d := range perLayer {
		if d.Base == "" || d.Target == "" {
			t.Errorf("per-layer metric %s lacks its base or its target", d.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([3, 1, 2], n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	shift := func(f float64) ([]float64, [][2]float64) {
		var c []float64
		var pairs [][2]float64
		for i, p := range parent {
			v := p * f
			if i%2 == 0 {
				v += 0.01 // keep the change runs distinct from the parent's
			}
			c = append(c, v)
			pairs = append(pairs, [2]float64{p, v})
		}
		return c, pairs
	}
	for _, tc := range []struct {
		factor  float64
		verdict string
		holds   bool
	}{
		{0.8, "improved", true},
		{1.3, "worse", false},
		{1.0, "unresolved", true},
	} {
		c, pairs := shift(tc.factor)
		got := compareMetric(lower, parent, c, pairs)
		if got.verdict != tc.verdict || got.holdsBound != tc.holds {
			t.Errorf("change x%.1f: verdict %s holds %v, want %s %v", tc.factor, got.verdict, got.holdsBound, tc.verdict, tc.holds)
		}
	}
}

func TestSelfSharesReadsProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		refLoop()
	}
	pprof.StopCPUProfile()
	shares, n, err := selfShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no CPU samples collected")
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 || shares["runtime"]+shares["sort"]+shares["vrio/vriobench"] == 0 {
		t.Errorf("shares %v over %d samples: want them to sum to 1 and include the reference loop's packages", shares, n)
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"vrio/internal/sim.(*Engine).RunUntil":    "sim",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"aeshashbody":                             "runtime",
		"type:.eq.vrio/internal/iohyp.devKey":     "iohyp",
		"crypto/sha256.block":                     "crypto/sha256",
		"main.refLoop":                            "main",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}
