// Datacenter: the placement tier above per-rack controllers.
//
// A fabric of racks gets one Controller per rack, each running entirely on
// its rack's simulation shard — heartbeats, failure detection, re-homing,
// and rebalancing never cross a shard boundary, which is also the physical
// truth: the dedicated channel cables that carry vRIO traffic run within a
// rack, so an IOclient can only ever be re-homed onto an IOhost in its own
// rack. "Prefer intra-rack re-homing" is therefore enforced by
// construction, not by a policy weight. What the datacenter tier adds is
// the detection of dark racks (every IOhost dead) where intra-rack
// re-homing is impossible and only a cross-rack VM migration could restore
// service.
package rack

import "vrio/internal/cluster"

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
