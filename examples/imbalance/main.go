// Load imbalance (§5 "Load Imbalance" / Figure 16b): with a fixed budget of
// two sidecores, Elvis must split them one-per-VMhost, so a loaded host can
// only ever use one; vRIO consolidates both at the IOhost, where the loaded
// host's I/O (here interposed with AES-256 encryption) can use the whole
// budget. The same consolidation also demonstrates Figure 16a's tradeoff:
// comparable throughput with HALF the sidecores.
//
//	go run ./examples/imbalance
package main

import (
	"fmt"
	"time"

	"vrio"
	"vrio/internal/cluster"
	"vrio/internal/interpose"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

const measure = 60 * time.Millisecond

func main() {
	fmt.Println("== Figure 16a: consolidation tradeoff (2 sidecores => 1) ==")
	elvis := runWebserver(vrio.ModelElvis, 1, 2, nil) // 1 sidecore per host x 2 hosts
	vrioT := runWebserver(vrio.ModelVRIO, 1, 2, nil)  // 1 consolidated sidecore
	base := runWebserver(vrio.ModelBaseline, 0, 2, nil)
	fmt.Printf("  elvis (2 sidecores):  %8.0f Mbps\n", elvis)
	fmt.Printf("  vrio  (1 sidecore):   %8.0f Mbps  (%+.0f%%)\n", vrioT, (vrioT/elvis-1)*100)
	fmt.Printf("  baseline:             %8.0f Mbps  (%+.0f%%)\n", base, (base/elvis-1)*100)
	fmt.Println()

	fmt.Println("== Figure 16b: imbalance with AES-256 interposition (2 => 2) ==")
	aes := func(host, vm int) *interpose.Chain {
		svc, err := interpose.NewAES([]byte("0123456789abcdef0123456789abcdef"),
			vrio.DefaultParams().AESPerByteCost)
		if err != nil {
			panic(err)
		}
		return interpose.NewChain(svc)
	}
	// Only host 0 is active; Elvis can use its one local sidecore, vRIO
	// the whole consolidated pair.
	elvisI := runWebserver(vrio.ModelElvis, 1, 1, aes)
	vrioI := runWebserver(vrio.ModelVRIO, 2, 1, aes)
	fmt.Printf("  elvis (1 usable sidecore):      %8.0f Mbps\n", elvisI)
	fmt.Printf("  vrio  (2 consolidated):         %8.0f Mbps  (%+.0f%%)\n",
		vrioI, (vrioI/elvisI-1)*100)
	fmt.Println()
	fmt.Println("Expected shape (paper): -8% for the 2=>1 tradeoff; ~+82% under")
	fmt.Println("imbalance, because consolidation lets the loaded host use the")
	fmt.Println("whole sidecore budget.")
}

// runWebserver assembles the 2-host x 5-VM webserver rack directly on the
// cluster layer (the experiment needs per-host activity control) and
// returns its throughput in Mbps.
func runWebserver(model vrio.Model, sidecores, activeHosts int, chain func(int, int) *interpose.Chain) float64 {
	tb := cluster.Build(cluster.Spec{
		Model: model, VMHosts: 2, VMsPerHost: 5,
		SidecoresPerHost: sidecores, IOhostSidecores: sidecores,
		WithBlock: true, WithThreads: true, BlkChain: chain, Seed: 5,
	})
	win := sim.Time(measure.Nanoseconds())
	s := tb.RunEach(win/10, win, func(i int) *workload.Results { return tb.StartWebserver(i, 600, activeHosts) })
	return s.Gbps * 1e3
}
