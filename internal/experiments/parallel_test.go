package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// update rewrites the golden transcript instead of checking against it:
//
//	go test ./internal/experiments/ -run TestParallelMatchesSerialByteIdentical -update
var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the serial quick run")

// goldenPath holds the exact bytes of `vrio-experiments -run all -quick`.
const goldenPath = "testdata/quick.golden"

var (
	quickOnce   sync.Once
	quickTables []*Table
)

// quickRun is the serial quick run of every experiment, made once per test
// binary and shared by the golden test and the claim checks.
func quickRun() []*Table {
	quickOnce.Do(func() { quickTables = run(IDs(), true, 1) })
	return quickTables
}

// RunParallel must preserve requested order, skip unknown ids, and tolerate
// more workers than cells. The cost experiments make this fast.
func TestRunParallelOrderAndUnknownIDs(t *testing.T) {
	got := RunParallel([]string{"table1", "nope", "fig1"}, true, 16)
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2", len(got))
	}
	if got[0].ID != "table1" || got[1].ID != "fig1" {
		t.Errorf("result order = %s, %s; want table1, fig1", got[0].ID, got[1].ID)
	}
}

// Every experiment's cells must be genuinely independent: running them on 8
// goroutines in arbitrary order must produce byte-identical formatted
// Results to the serial run, for every experiment id. This is the
// regression gate for any future cell that sneaks in shared mutable state.
// The serial transcript must also match the golden file byte for byte, so a
// refactor that claims unchanged behaviour is checked by a test.
func TestParallelMatchesSerialByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	serial := results(quickRun())
	checkGolden(t, serial)
	parallel := RunAllParallel(true, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("serial produced %d results, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].ID != parallel[i].ID {
			t.Fatalf("result %d: serial id %q, parallel id %q", i, serial[i].ID, parallel[i].ID)
		}
		s, p := Format(serial[i]), Format(parallel[i])
		if s != p {
			t.Errorf("experiment %s: parallel output differs from serial\n--- serial ---\n%s--- parallel ---\n%s",
				serial[i].ID, s, p)
		}
	}
}

// checkGolden compares the serial transcript, formatted exactly as
// vrio-experiments prints it, against goldenPath (or rewrites the file under
// -update).
func checkGolden(t *testing.T, results []Result) {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		b.WriteString(Format(r))
		b.WriteString("\n")
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("quick transcript differs from %s (-want +got):\n%s", goldenPath, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines that differ between want and got, position by
// position, up to a cap.
func lineDiff(want, got string) string {
	const maxLines = 40
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(w), len(g)) && shown < maxLines; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, wl, gl)
		shown++
	}
	if len(w) != len(g) {
		fmt.Fprintf(&b, "(%d lines want, %d got)\n", len(w), len(g))
	}
	return b.String()
}
