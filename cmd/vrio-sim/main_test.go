package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// update rewrites testdata/runs.golden instead of checking against it:
//
//	go test ./cmd/vrio-sim/ -run TestRunGolden -update
var update = flag.Bool("update", false, "rewrite testdata/runs.golden")

// wallClock matches the one machine-dependent line of a fabric run.
var wallClock = regexp.MustCompile(`(?m)^wall clock: .*$`)

// TestRunGolden pins stdout for every workload and for a two-rack fabric
// run at one and two shard workers. Runs are seeded, so the transcript is
// byte-identical except for the wall-clock line, which is masked.
func TestRunGolden(t *testing.T) {
	cases := []string{
		"-model vrio -vms 2 -measure 10ms -workload rr",
		"-model elvis -vms 2 -measure 10ms -workload stream",
		"-model baseline -vms 2 -measure 10ms -workload apache",
		"-model optimum -vms 2 -measure 10ms -workload memcached",
		"-model vrio -vms 2 -measure 10ms -workload filebench",
		"-model elvis -vmhosts 2 -vms 2 -measure 10ms -workload webserver",
		"-model vrio -racks 2 -shards 1 -measure 10ms",
		"-model vrio -racks 2 -shards 2 -measure 10ms",
		"-model vrio -racks 2 -shards 1 -sidecores 2 -measure 10ms",
	}
	var got bytes.Buffer
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
			t.Fatalf("vrio-sim %s: exit %d, stderr %q", args, code, stderr.String())
		}
		got.WriteString("== vrio-sim " + args + " ==\n")
		got.WriteString(wallClock.ReplaceAllString(stdout.String(), "wall clock: (masked)"))
	}
	const golden = "testdata/runs.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stdout differs from %s:\n%s", golden, got.String())
	}
}

// TestRunRejectsBadArgs: an unknown model or workload, a fabric run of a
// workload other than rr, and a non-positive topology size, duration or
// oversubscription exit 2 with a message on stderr.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range []string{
		"-model nope",
		"-workload nope -measure 1ms",
		"-racks 2 -workload stream",
		"-sidecores -1",
		"-racks 2 -sidecores -1",
		"-measure -5ms",
		"-measure 0",
		"-vms -1",
		"-vmhosts -2",
		"-racks 2 -oversub 0",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 2 {
			t.Errorf("vrio-sim %s: exit %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("vrio-sim %s: nothing on stderr", args)
		}
	}
}
