// Package rack is the rack-scale control plane over a multi-IOhost vRIO
// testbed (cluster.Spec.NumIOhosts > 1): build-time device placement
// policies, a heartbeat failure detector that automatically re-homes a dead
// IOhost's devices onto the survivors (§4.6 without the manual failover
// call), and a metrics-driven rebalancer that migrates the hottest device
// off the busiest IOhost (§5 "Load Imbalance" turned into a feedback loop).
// Everything runs on the simulation's own timers and reads the testbed's
// trace.Registry gauges, so a controlled rack stays deterministic per seed.
package rack

import "fmt"

// Policy assigns each IOclient's devices to an IOhost at build time. Place
// is called once per guest in build order (host-major global vm index), so
// stateful policies see a deterministic call sequence.
type Policy interface {
	// Place returns the IOhost in [0, numIOhosts) for guest vm (global
	// index) living on VMhost host.
	Place(host, vm, numIOhosts int) int
}

// Placement adapts a Policy to cluster.Spec.Placement.
func Placement(p Policy, numIOhosts int) func(host, vm int) int {
	return func(host, vm int) int { return p.Place(host, vm, numIOhosts) }
}

// Static places every device on one IOhost — the degenerate policy that
// reproduces the single-IOhost rack, and the worst case the rebalancer must
// heal.
type Static int

// Place returns IOhost s, which must exist.
func (s Static) Place(_, _, numIOhosts int) int {
	if int(s) < 0 || int(s) >= numIOhosts {
		panic(fmt.Sprintf("rack: Static(%d) out of range [0,%d)", int(s), numIOhosts))
	}
	return int(s)
}

// RoundRobin spreads devices across IOhosts in guest build order.
type RoundRobin struct{ next int }

// Place returns the IOhost after the one it returned last, wrapping.
func (r *RoundRobin) Place(_, _, numIOhosts int) int {
	io := r.next % numIOhosts
	r.next++
	return io
}
