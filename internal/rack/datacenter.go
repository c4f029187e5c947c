// Datacenter: the placement tier above per-rack controllers.
//
// A fabric of racks gets one Controller per rack, each running entirely on
// its rack's simulation shard — heartbeats, failure detection, re-homing,
// and rebalancing never cross a shard boundary, which is also the physical
// truth: the dedicated channel cables that carry vRIO traffic run within a
// rack, so an IOclient can only ever be re-homed onto an IOhost in its own
// rack. "Prefer intra-rack re-homing" is therefore enforced by
// construction, not by a policy weight. What the datacenter tier adds is
// the global view: a merged, deterministically ordered event log, and the
// detection of dark racks (every IOhost dead) where intra-rack re-homing is
// impossible and only a cross-rack VM migration could restore service.
package rack

import (
	"sort"

	"vrio/internal/cluster"
)

// RackEvent is one control-plane action with the rack that took it.
type RackEvent struct {
	Rack int
	Event
}

// Datacenter runs one Controller per rack of a fabric.
type Datacenter struct {
	fab *cluster.Fabric
	// Controllers[r] is rack r's control plane, on rack r's shard.
	Controllers []*Controller
}

// NewDatacenter builds a controller per rack (vRIO fabrics only — the same
// requirement Controller.New enforces per testbed).
func NewDatacenter(fab *cluster.Fabric, cfg Config) *Datacenter {
	d := &Datacenter{fab: fab}
	for _, tb := range fab.Racks {
		d.Controllers = append(d.Controllers, New(tb, cfg))
	}
	return d
}

// Start arms every rack's control loops on that rack's engine.
func (d *Datacenter) Start() {
	for _, c := range d.Controllers {
		c.Start()
	}
}

// Stop cancels all control loops.
func (d *Datacenter) Stop() {
	for _, c := range d.Controllers {
		c.Stop()
	}
}

// Events merges the racks' logs into one deterministic order: by time, ties
// by rack index. Within a rack the controller's own append order is kept
// (it is already time-ordered), so the merge is a pure function of the
// per-rack logs — independent of how many workers executed the shards.
func (d *Datacenter) Events() []RackEvent {
	var all []RackEvent
	for r, c := range d.Controllers {
		for _, e := range c.Events {
			all = append(all, RackEvent{Rack: r, Event: e})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].T != all[j].T {
			return all[i].T < all[j].T
		}
		return all[i].Rack < all[j].Rack
	})
	return all
}

// Counter sums a controller counter across all racks.
func (d *Datacenter) Counter(name string) uint64 {
	var n uint64
	for _, c := range d.Controllers {
		n += c.Counters.Get(name)
	}
	return n
}
