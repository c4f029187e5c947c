package experiments

import (
	"testing"
)

// TestFabricScalingDeterministicQuick: the fabric study must be
// byte-reproducible run-to-run (its rows carry no wall-clock quantities),
// and the serial-vs-sharded equivalence cell must report identical output.
func TestFabricScalingDeterministicQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tab := run([]string{"fabricscaling"}, true, 1)[0]
	a, b := Format(tab.Result()), Format(Get("fabricscaling")(true))
	if a != b {
		t.Errorf("fabricscaling output differs between identical runs:\n%s\n---\n%s", a, b)
	}
	if got := tab.Get(Point{"cell": "serial vs sharded"}, "identical"); got != 1 {
		t.Errorf("serial-vs-sharded equivalence = %v, want 1 (identical):\n%s", got, a)
	}
	// Cross-rack traffic must actually flow and cross shards in every cell.
	for _, p := range tab.Points {
		if tab.Get(p, "xshard") == 0 {
			t.Errorf("%s: zero cross-shard messages", p["cell"])
		}
	}
}
