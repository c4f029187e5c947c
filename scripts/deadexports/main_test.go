package main

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The fixture is two modules: testdata/m declares internal/a, and
// testdata/second uses one of its symbols from outside m.
var fixture = []string{"testdata/m", "testdata/second"}

// TestUnusedSymbols checks what the fixture's package a reports: an unused
// method whose name a used method of another type shares (a name match
// would pass it), a function only a test uses, and unused functions,
// unexported ones included. Methods that satisfy the module's own interface,
// fmt.Stringer or json.Unmarshaler, a generic method used through an
// instantiation, and a function used from the second module are not
// reported. Of Tally's fields, one that is only written and one that only a
// test reads are reported; one read by a method used only as a method
// value, one read through a method value of its own, and the fields of
// structs read only as a map key or by == are not.
func TestUnusedSymbols(t *testing.T) {
	unused, err := unusedSymbols(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for sym := range unused {
		got = append(got, sym)
	}
	sort.Strings(got)
	want := []string{"a.OnlyTests", "a.Other.Close", "a.Tally.forTests", "a.Tally.written", "a.Unused", "a.unusedHelper"}
	if !slices.Equal(got, want) {
		t.Errorf("unused = %q, want %q", got, want)
	}
	if pos := unused["a.Other.Close"]; pos != filepath.Join("testdata", "m", "internal", "a", "a.go")+":18" {
		t.Errorf("a.Other.Close reported at %q", pos)
	}
}

// TestAllowlist checks the allowlist's rules on the fixture: a listed
// symbol passes, and an unlisted unused symbol, a line without a reason and
// a stale line each fail.
func TestAllowlist(t *testing.T) {
	unused, err := unusedSymbols(fixture)
	if err != nil {
		t.Fatal(err)
	}
	const complete = `# comment lines and blank lines are skipped

a.OnlyTests      a harness other packages' tests share
a.Other.Close    kept for the test
a.Unused         kept for the test
a.unusedHelper   kept for the test
a.Tally.forTests a field the test reads
a.Tally.written  kept for the test
`
	cases := []struct {
		name, allowlist string
		want            []string // problem substrings, in sorted order
	}{
		{"complete", complete, nil},
		{"unlisted unused function", strings.Replace(complete, "a.Unused         kept for the test\n", "", 1),
			[]string{"a.go:60: a.Unused is used by no non-test code"}},
		{"no reason", strings.Replace(complete, "a.Unused         kept for the test", "a.Unused", 1),
			[]string{"allowlist.txt:5: a.Unused has no reason", "a.go:60: a.Unused is used by no non-test code"}},
		{"stale line", complete + "a.FromSecond     used from the second module\n",
			[]string{"allowlist.txt:9: a.FromSecond is not an unused symbol"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "allowlist.txt")
			if err := os.WriteFile(path, []byte(c.allowlist), 0o644); err != nil {
				t.Fatal(err)
			}
			problems, err := check(path, unused)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != len(c.want) {
				t.Fatalf("problems %q, want %d matching %q", problems, len(c.want), c.want)
			}
			for i, p := range problems {
				if !strings.Contains(p, c.want[i]) {
					t.Errorf("problem %d = %q, want it to contain %q", i, p, c.want[i])
				}
			}
		})
	}
}
