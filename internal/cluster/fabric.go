// Fabric assembly: many racks, each a complete Testbed on its own
// simulation shard, joined by a spine-leaf fabric whose ToR↔spine cables
// cross shard boundaries.
//
// The sharding cut is fixed by the topology — one shard per rack plus one
// for the spine tier — and only the worker count varies at run time, so the
// same fabric produces byte-identical output whether its windows execute
// serially or on eight cores (TestFabricShardedMatchesSerialByteIdentical).
// The lookahead bound is params.FabricLinkLatency: every cross-shard wire is
// a ToR↔spine cable with exactly that propagation latency, so no shard can
// influence another sooner than one fabric-link flight time.
package cluster

import (
	"fmt"
	"io"

	"vrio/internal/ethernet"
	"vrio/internal/link"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/trace"
	"vrio/internal/workload"
)

// macRackStride is the size of each rack's MAC address block: rack r mints
// node ids in [r<<20, (r+1)<<20), so the locator recovers the rack of any
// cluster MAC by arithmetic instead of a learned table.
const macRackStride = 1 << 20

// FabricSpec describes a multi-rack spine-leaf deployment.
type FabricSpec struct {
	// Rack is the per-rack testbed template: model, VMhosts, VMs, IOhosts,
	// workload shape. Each rack gets a copy with its own MAC block and a
	// decorrelated seed.
	Rack Spec
	// NumRacks is the number of racks (= leaf switches = rack shards).
	NumRacks int
	// NumSpines is the spine count; every ToR runs one uplink to each
	// spine. 0 means 2.
	NumSpines int
	// Oversubscription is the ToR downlink:uplink capacity ratio (0 means
	// 4, the classic datacenter default; 1 is non-blocking).
	Oversubscription float64
}

func (fs *FabricSpec) defaults() {
	if fs.NumSpines == 0 {
		fs.NumSpines = 2
	}
	if fs.Oversubscription == 0 {
		fs.Oversubscription = 4
	}
}

// linkSpec lowers the cluster-level description to the link layer's fabric
// spec (which owns the topology-shape validation and the uplink-bandwidth
// derivation).
func (fs *FabricSpec) linkSpec(p *params.P) link.FabricSpec {
	ls := link.FabricSpec{
		Spines:           fs.NumSpines,
		Oversubscription: fs.Oversubscription,
		DownlinkBps:      p.LinkBandwidth10G,
	}
	rack := fs.Rack
	rack.defaults()
	for r := 0; r < fs.NumRacks; r++ {
		// ToR ports are what the rack build actually cables to its switch:
		// load-generator stations (one per VMhost, or per VM) and the IOhost
		// uplinks. The capacity model charges them all at the 10G downlink
		// class; the 40G IOhost uplinks are a modest undercount that keeps
		// the oversubscription ratio interpretable.
		stations := rack.VMHosts
		if rack.StationPerVM {
			stations *= rack.VMsPerHost
		}
		ls.Tors = append(ls.Tors, link.TorSpec{
			ID:      r,
			Hosts:   stations + rack.NumIOhosts,
			Uplinks: fs.NumSpines,
		})
	}
	return ls
}

// Validate checks the fabric spec, returning a descriptive error for every
// way a topology can be unbuildable. CLI flags and experiment configs feed
// this, so bad input must never panic.
func (fs FabricSpec) Validate() error {
	fs.defaults()
	if fs.NumRacks <= 0 {
		return fmt.Errorf("cluster: fabric needs at least one rack, got %d", fs.NumRacks)
	}
	p := fs.Rack.Params
	if p == nil {
		def := params.Default()
		p = &def
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if err := fs.Rack.Validate(); err != nil {
		return err
	}
	return fs.linkSpec(p).Validate()
}

// Fabric is an assembled multi-rack deployment: one Testbed per rack, each
// on its own shard, the spine switches on a shard of their own, and the
// coordinator that advances them together.
type Fabric struct {
	// Group coordinates the shards; Lookahead is its window size.
	Group     *sim.ShardGroup
	Lookahead sim.Time

	// Racks[r] is rack r's complete testbed, built on RackShards[r].Eng.
	Racks      []*Testbed
	RackShards []*sim.Shard
	// Spines are the spine switches, all on SpineShard's engine.
	Spines     []*link.Switch
	SpineShard *sim.Shard

	// SpineTracer records the spine shard's fabric-hop spans when the rack
	// template has tracing on (nil — the disabled tracer — otherwise). Each
	// rack's own hops land in its Testbed.Tracer; the merged export stitches
	// them by Span.Flow.
	SpineTracer *trace.Tracer
	// SpineMetrics is the spine shard's registry: per-spine forwarding and
	// drop tallies plus per-downlink wire stats.
	SpineMetrics *trace.Registry
	// SpineFlight is the spine shard's flight recorder (spine switch drops).
	SpineFlight *trace.FlightRecorder

	// Uplinks[r][s] is rack r's transmit wire toward spine s (it lives on
	// rack r's engine); Downlinks[r][s] is the matching spine-to-rack wire
	// (on the spine engine). Kept for the per-uplink gauges and the rollup.
	Uplinks   [][]*link.Wire
	Downlinks [][]*link.Wire
}

// Tracers returns the fabric's per-shard tracers in shard order — racks
// first, spine last, matching ShardGroup's shard numbering — ready for
// trace.Merge / trace.WriteMergedJSONL. All nil (disabled) when the fabric
// was built without tracing.
func (f *Fabric) Tracers() []*trace.Tracer {
	out := make([]*trace.Tracer, 0, len(f.Racks)+1)
	for _, tb := range f.Racks {
		out = append(out, tb.Tracer)
	}
	return append(out, f.SpineTracer)
}

// WriteSpans writes the merged cross-shard span export: every shard's spans
// in (start, shard, id) order, byte-identical at any worker count.
func (f *Fabric) WriteSpans(w io.Writer) error {
	return trace.WriteMergedJSONL(w, f.Tracers())
}

// rackLocator maps any cluster MAC to its owning rack by decoding the node
// id and dividing by the per-rack address stride.
func rackLocator(numRacks int) func(ethernet.MAC) (int, bool) {
	return func(m ethernet.MAC) (int, bool) {
		id, ok := ethernet.NodeID(m)
		if !ok {
			return 0, false
		}
		r := int(id / macRackStride)
		if r >= numRacks {
			return 0, false
		}
		return r, true
	}
}

// BuildFabric assembles the fabric. Build order is deterministic: racks in
// index order (each an ordinary BuildOn onto its shard's engine), then the
// spine tier, then the cross-shard uplink cables in (rack, spine) order.
func BuildFabric(fs FabricSpec) (*Fabric, error) {
	fs.defaults()
	if err := fs.Validate(); err != nil {
		return nil, err
	}
	p := fs.Rack.Params
	if p == nil {
		def := params.Default()
		p = &def
	}
	ls := fs.linkSpec(p)

	f := &Fabric{
		Lookahead: p.FabricLinkLatency,
		Group:     sim.NewShardGroup(p.FabricLinkLatency, 0),
	}

	for r := 0; r < fs.NumRacks; r++ {
		sh := f.Group.AddShard()
		rs := fs.Rack
		rs.Params = p
		rs.MACOffset = uint32(r) * macRackStride
		// Decorrelate the racks' jitter/fault streams while keeping the
		// whole fabric a pure function of the base seed.
		rs.Seed = fs.Rack.Seed + uint64(r)*0x9e3779b97f4a7c15
		if fs.Rack.FaultSeed != 0 {
			rs.FaultSeed = fs.Rack.FaultSeed + uint64(r)*0x9e3779b97f4a7c15
		}
		f.RackShards = append(f.RackShards, sh)
		f.Racks = append(f.Racks, BuildOn(rs, sh.Eng))
	}

	locate := rackLocator(fs.NumRacks)
	f.SpineShard = f.Group.AddShard()
	if fs.Rack.Trace {
		f.SpineTracer = trace.New(f.SpineShard.Eng)
	}
	f.SpineMetrics = trace.NewRegistry()
	f.SpineFlight = trace.NewFlightRecorder(flightCapacity)
	for s := 0; s < fs.NumSpines; s++ {
		s := s
		sw := link.NewSwitch(f.SpineShard.Eng, p.SpineLatency)
		sw.SetLocator(-1, locate)
		sw.OnDrop = func(reason link.DropReason) {
			f.SpineFlight.Record(f.SpineShard.Eng.Now(), "switch_drop", reason.String(), uint64(s))
		}
		f.Spines = append(f.Spines, sw)
		comp := fmt.Sprintf("spine%d", s)
		f.SpineMetrics.Gauge(comp, "forwarded", func() float64 { return float64(sw.Forwarded) })
		f.SpineMetrics.Gauge(comp, "flooded", func() float64 { return float64(sw.Flooded) })
		for reason := link.DropReason(0); reason < link.NumDropReasons; reason++ {
			reason := reason
			f.SpineMetrics.Gauge(comp, "drops_"+reason.String(),
				func() float64 { return float64(sw.Drops.Get(reason)) })
		}
	}

	f.Uplinks = make([][]*link.Wire, fs.NumRacks)
	f.Downlinks = make([][]*link.Wire, fs.NumRacks)
	for r, tb := range f.Racks {
		tb.Switch.SetLocator(r, locate)
		upBps := ls.UplinkBps(ls.Tors[r])
		rackShard := f.RackShards[r]
		for s := 0; s < fs.NumSpines; s++ {
			// The cable's two directions live on different shards: the
			// up-direction wire on the rack's engine (the ToR transmits it),
			// the down-direction wire on the spine's. Each posts completed
			// deliveries into the far shard's inbox; sim.ShardGroup's
			// barrier turns those posts into ordinary engine events in a
			// fixed (time, shard, seq) order.
			cable := &link.Duplex{
				AtoB: link.NewWire(tb.Eng, upBps, p.FabricLinkLatency, nil),
				BtoA: link.NewWire(f.SpineShard.Eng, upBps, p.FabricLinkLatency, nil),
			}
			up, down := cable.AtoB, cable.BtoA
			spineShard := f.SpineShard
			up.SetRemote(func(at sim.Time, frame []byte) {
				spineShard.Post(rackShard, at, func() { up.RemoteDeliver(frame) })
			})
			down.SetRemote(func(at sim.Time, frame []byte) {
				rackShard.Post(spineShard, at, func() { down.RemoteDeliver(frame) })
			})
			// Per-hop spans: each direction records into the tracer of the
			// shard that transmits it, so span recording stays single-
			// threaded; the merged export stitches the two directions of a
			// request back together by flow key.
			up.SetHopTracer(tb.Tracer, fmt.Sprintf("tor%d-spine%d", r, s))
			down.SetHopTracer(f.SpineTracer, fmt.Sprintf("spine%d-tor%d", s, r))
			f.Uplinks[r] = append(f.Uplinks[r], up)
			f.Downlinks[r] = append(f.Downlinks[r], down)
			tb.Switch.AttachUplink(cable)
			f.Spines[s].SetRackPort(r, f.Spines[s].AttachPort(cable))
		}
		f.registerUplinkMetrics(r, tb)
	}
	return f, nil
}

// registerUplinkMetrics publishes rack r's fabric-facing gauges: per-uplink
// traffic/drops/utilization on the rack's own registry, per-downlink stats
// on the spine registry, and the rack's ECMP imbalance — max over mean
// tx_frames across its uplinks (1.0 when perfectly balanced or idle), the
// number the oversubscription sweep reports.
func (f *Fabric) registerUplinkMetrics(r int, tb *Testbed) {
	for s, up := range f.Uplinks[r] {
		up := up
		comp := fmt.Sprintf("uplink%d", s)
		tb.Metrics.Gauge(comp, "tx_bytes", func() float64 { return float64(up.Bytes) })
		tb.Metrics.Gauge(comp, "tx_frames", func() float64 { return float64(up.Frames) })
		tb.Metrics.Gauge(comp, "delivered", func() float64 { return float64(up.Delivered) })
		tb.Metrics.Gauge(comp, "drops", func() float64 { return float64(up.Drops.Total()) })
		tb.Metrics.Gauge(comp, "utilization", up.Utilization)
	}
	for s, down := range f.Downlinks[r] {
		down := down
		comp := fmt.Sprintf("downlink%d_%d", s, r)
		f.SpineMetrics.Gauge(comp, "tx_bytes", func() float64 { return float64(down.Bytes) })
		f.SpineMetrics.Gauge(comp, "tx_frames", func() float64 { return float64(down.Frames) })
		f.SpineMetrics.Gauge(comp, "drops", func() float64 { return float64(down.Drops.Total()) })
		f.SpineMetrics.Gauge(comp, "utilization", down.Utilization)
	}
	ups := f.Uplinks[r]
	tb.Metrics.Gauge("fabric", "ecmp_imbalance", func() float64 {
		var total, max float64
		for _, up := range ups {
			n := float64(up.Frames)
			total += n
			if n > max {
				max = n
			}
		}
		if total == 0 {
			return 1
		}
		return max * float64(len(ups)) / total
	})
}

// RunMeasured advances every shard through warmup then a measured window of
// the given duration, with up to workers rack engines executing each window
// concurrently (workers <= 1 is the serial reference run — byte-identical
// to any parallel run). perRack[r] lists the collectors owned by rack r;
// their start/stop toggles are scheduled on that rack's own engine, keeping
// every mutation single-shard. Call once, from time zero.
func (f *Fabric) RunMeasured(warmup, duration sim.Time, workers int, perRack [][]*workload.Results) sim.Time {
	for r, tb := range f.Racks {
		var cs []*workload.Results
		if r < len(perRack) {
			cs = perRack[r]
		}
		tb.Eng.At(warmup, func() {
			for _, c := range cs {
				c.StartMeasuring()
			}
		})
		tb.Eng.At(warmup+duration, func() {
			for _, c := range cs {
				c.StopMeasuring()
			}
		})
	}
	f.Group.RunUntil(warmup+duration, workers)
	return duration
}

// TotalExecuted sums simulation events executed across all shards.
func (f *Fabric) TotalExecuted() uint64 { return f.Group.TotalExecutedInGroup() }

// Close releases the coordinator's worker goroutines.
func (f *Fabric) Close() { f.Group.Close() }
