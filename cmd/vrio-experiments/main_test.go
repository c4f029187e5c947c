package main

import (
	"bytes"
	"strings"
	"testing"

	"vrio/internal/experiments"
)

// TestRunList: -list prints every experiment id, one a line, in registry
// order.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, stderr.String())
	}
	if want := strings.Join(experiments.IDs(), "\n") + "\n"; stdout.String() != want {
		t.Errorf("-list printed\n%s\nwant\n%s", stdout.String(), want)
	}
}

// TestRunRejectsBadArgs: an unknown experiment id, a flag the command does
// not take and a non-positive sampling interval exit 2 with a message on
// stderr.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range []string{
		"-run nosuch",
		"-run table1,nosuch",
		"-racks 4",
		"-trace -metrics-interval -1ms",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 2 {
			t.Errorf("vrio-experiments %s: exit %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("vrio-experiments %s: nothing on stderr", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("vrio-experiments %s: printed %q on stdout", args, stdout.String())
		}
	}
}

// TestRunOneExperiment: -run prints the experiment's full-length table and a
// blank line after it.
func TestRunOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "table1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-run table1: exit %d, stderr %q", code, stderr.String())
	}
	if want := experiments.Format(experiments.Get("table1")(false)) + "\n"; stdout.String() != want {
		t.Errorf("-run table1 printed\n%s\nwant\n%s", stdout.String(), want)
	}
}
