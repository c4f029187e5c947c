package rack

import (
	"fmt"

	"vrio/internal/cluster"
	"vrio/internal/sim"
	"vrio/internal/stats"
	"vrio/internal/trace"
)

// Config tunes the control loops. Zero values take the documented defaults.
type Config struct {
	// HeartbeatInterval is the failure-detector probe period (default
	// 500µs of sim time).
	HeartbeatInterval sim.Time
	// MissThreshold consecutive unanswered probes declare an IOhost dead
	// (default 3). A crash is therefore detected within
	// MissThreshold*HeartbeatInterval of the first missed probe — the
	// bounded detection window.
	MissThreshold int
	// RebalanceInterval is the load-check period; 0 disables rebalancing.
	RebalanceInterval sim.Time
	// ImbalanceRatio triggers a device migration when the busiest IOhost's
	// busy-time delta over the last window exceeds ImbalanceRatio times the
	// least busy survivor's (default 2.0).
	ImbalanceRatio float64
	// CooldownTicks is the hysteresis: after a move the rebalancer sits out
	// this many windows so the move's effect shows up in the busy-time
	// deltas before another is considered (default 2).
	CooldownTicks int
}

func (c *Config) defaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = sim.Millisecond / 2
	}
	if c.MissThreshold <= 0 {
		c.MissThreshold = 3
	}
	if c.ImbalanceRatio <= 0 {
		c.ImbalanceRatio = 2.0
	}
	if c.CooldownTicks <= 0 {
		c.CooldownTicks = 2
	}
}

// EventKind labels a control-plane action.
type EventKind int

const (
	// EventDetect: the failure detector declared an IOhost dead.
	EventDetect EventKind = iota
	// EventRehome: a dead IOhost's guest was re-registered on a survivor.
	EventRehome
	// EventRebalance: the hottest guest moved off the busiest IOhost.
	EventRebalance
	// EventRackDark: an IOhost died with no surviving IOhost in the rack
	// to re-home onto — the rack's guests have lost remote I/O service.
	EventRackDark
)

// String names the kind as events and flight records print it.
func (k EventKind) String() string {
	switch k {
	case EventDetect:
		return "detect"
	case EventRehome:
		return "rehome"
	case EventRebalance:
		return "rebalance"
	case EventRackDark:
		return "rack_dark"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one control-plane action, timestamped in sim time.
type Event struct {
	T      sim.Time
	Kind   EventKind
	IOhost int // the dead IOhost (detect/rehome) or the move's source
	VM     int // affected guest; -1 for detections
	Dst    int // destination IOhost; -1 for detections
}

// Controller is the rack-scale control plane: a heartbeat failure detector
// and an optional metrics-driven rebalancer over a multi-IOhost testbed.
// Create at most one per testbed (it registers "rack" gauges in the
// testbed's metrics registry), then Start it before running the engine.
type Controller struct {
	tb  *cluster.Testbed
	cfg Config

	alive      []bool
	misses     []int
	lastBusy   []float64
	lastFrames []float64
	cooldown   int
	stops      []func()

	// The rebalance policy reads exactly one gauge per IOhost (sidecore
	// busy time) and two per guest (VF frame counts). The handles are
	// resolved once here, and the per-window delta slices are reused, so a
	// tick costs a handful of gauge reads — not a name-formatting pass and
	// registry lookup per component, re-allocated every window.
	busyMetrics []*trace.Metric
	vfMetrics   [][2]*trace.Metric
	busyDelta   []float64
	frameDelta  []float64

	// Events is the ordered control-plane action log.
	Events []Event
	// Counters: "heartbeats", "heartbeat_misses", "detections", "rehomes",
	// "rebalances".
	Counters stats.Counters
}

// New wires a controller over tb's IOhosts and registers its gauges.
func New(tb *cluster.Testbed, cfg Config) *Controller {
	if tb.IOHyp == nil {
		panic("rack: the controller requires a vRIO testbed")
	}
	cfg.defaults()
	c := &Controller{
		tb:         tb,
		cfg:        cfg,
		alive:      make([]bool, len(tb.IOHyps)),
		misses:     make([]int, len(tb.IOHyps)),
		lastBusy:   make([]float64, len(tb.IOHyps)),
		lastFrames: make([]float64, len(tb.VRIOClients)),
		busyDelta:  make([]float64, len(tb.IOHyps)),
		frameDelta: make([]float64, len(tb.VRIOClients)),
	}
	for i := range tb.IOHyps {
		c.busyMetrics = append(c.busyMetrics, tb.Metrics.Get(cluster.IOhypComponent(i), "busy_ns"))
	}
	for vm := range tb.VRIOClients {
		comp := fmt.Sprintf("vm%d-vf", vm)
		c.vfMetrics = append(c.vfMetrics, [2]*trace.Metric{
			tb.Metrics.Get(comp, "rx_frames"), tb.Metrics.Get(comp, "tx_frames"),
		})
	}
	for i := range c.alive {
		c.alive[i] = true
	}
	r := tb.Metrics
	r.Gauge("rack", "alive_iohosts", func() float64 { return float64(c.AliveIOhosts()) })
	for _, name := range []string{"heartbeat_misses", "detections", "rehomes", "rebalances"} {
		name := name
		r.Gauge("rack", name, func() float64 { return float64(c.Counters.Get(name)) })
	}
	return c
}

// Start arms the heartbeat (and, when configured, rebalance) timers on the
// testbed's engine.
func (c *Controller) Start() {
	c.stops = append(c.stops, c.tb.Eng.Ticker(c.cfg.HeartbeatInterval, c.heartbeatTick))
	if c.cfg.RebalanceInterval > 0 {
		c.stops = append(c.stops, c.tb.Eng.Ticker(c.cfg.RebalanceInterval, c.rebalanceTick))
	}
}

// Stop cancels the controller's timers.
func (c *Controller) Stop() {
	for _, stop := range c.stops {
		stop()
	}
	c.stops = nil
}

// AliveIOhosts counts IOhosts the failure detector still believes in.
func (c *Controller) AliveIOhosts() int {
	n := 0
	for _, a := range c.alive {
		if a {
			n++
		}
	}
	return n
}

// Down reports whether the detector has declared IOhost i dead.
func (c *Controller) Down(i int) bool { return !c.alive[i] }

// heartbeatTick probes every IOhost believed alive. A live I/O hypervisor
// answers immediately; a crashed one (§4.6 Fail) answers nothing, ever, so
// each tick past the crash is a missed probe. An IOhost inside an injected
// worker stall (fault layer) also misses probes — its sidecores are pinned
// and cannot answer. Stalls shorter than MissThreshold×HeartbeatInterval
// clear the miss count on recovery; longer ones are declared dead, the
// timeout detector's inherent false positive.
func (c *Controller) heartbeatTick() {
	c.Counters.Inc("heartbeats", 1)
	for i, h := range c.tb.IOHyps {
		if !c.alive[i] {
			continue
		}
		if !h.Failed() && !h.Stalled() {
			c.misses[i] = 0
			continue
		}
		c.misses[i]++
		c.Counters.Inc("heartbeat_misses", 1)
		c.tb.Flight.Record(c.tb.Eng.Now(), "hb_miss", "iohost", uint64(i))
		if c.misses[i] >= c.cfg.MissThreshold {
			c.declareDead(i)
		}
	}
}

// declareDead records the detection and re-homes every guest the dead
// IOhost served onto the least-loaded survivors (§4.6's fallback IOhost,
// generalized to any surviving IOhost in the rack).
func (c *Controller) declareDead(i int) {
	c.alive[i] = false
	c.Counters.Inc("detections", 1)
	c.logEvent(Event{T: c.tb.Eng.Now(), Kind: EventDetect, IOhost: i, VM: -1, Dst: -1})
	// Distributed volumes react to the same detection: every volume router
	// marks the host's replicas dead and starts rebuilding them onto
	// survivors. Inert when the testbed has no volumes.
	c.tb.IOhostDied(i)
	for vm, io := range c.tb.ClientIOhost {
		if io != i {
			continue
		}
		dst := c.leastLoadedAlive()
		if dst < 0 {
			// No survivors: the rack is dark. Recorded once, loudly — a
			// datacenter tier can only restore service by migrating the
			// guests to another rack, not by re-homing within this one.
			c.Counters.Inc("rack_dark", 1)
			c.logEvent(Event{T: c.tb.Eng.Now(), Kind: EventRackDark, IOhost: i, VM: -1, Dst: -1})
			return
		}
		c.tb.RehomeClient(vm, dst)
		c.Counters.Inc("rehomes", 1)
		c.logEvent(Event{T: c.tb.Eng.Now(), Kind: EventRehome, IOhost: i, VM: vm, Dst: dst})
	}
}

// logEvent appends a control-plane event and mirrors it into the rack's
// flight recorder, so an anomaly dump shows the detector/re-homing sequence
// that led up to it.
func (c *Controller) logEvent(e Event) {
	c.Events = append(c.Events, e)
	c.tb.Flight.Record(e.T, "rack_event", e.Kind.String(), uint64(e.IOhost))
}

// metricValue reads a cached gauge handle, tolerating metrics a model
// variant never registered (same contract as Registry.Value's 0 default).
func metricValue(m *trace.Metric) float64 {
	if m == nil {
		return 0
	}
	return m.Value()
}

// leastLoadedAlive picks the surviving IOhost with the fewest placed
// guests (ties to the lowest index, keeping the choice deterministic).
func (c *Controller) leastLoadedAlive() int {
	counts := make([]int, len(c.tb.IOHyps))
	for _, io := range c.tb.ClientIOhost {
		counts[io]++
	}
	best := -1
	for i := range c.tb.IOHyps {
		if !c.alive[i] {
			continue
		}
		if best < 0 || counts[i] < counts[best] {
			best = i
		}
	}
	return best
}

// rebalanceTick reads each IOhost's sidecore busy time through the metrics
// registry, and — outside the post-move cooldown — migrates the busiest
// IOhost's hottest device (by VF frame deltas) to the least busy survivor
// when the busy-time deltas differ by more than ImbalanceRatio.
func (c *Controller) rebalanceTick() {
	tb := c.tb
	busyDelta, frameDelta := c.busyDelta, c.frameDelta
	for i := range tb.IOHyps {
		busy := metricValue(c.busyMetrics[i])
		busyDelta[i] = busy - c.lastBusy[i]
		c.lastBusy[i] = busy
	}
	for vm := range tb.VRIOClients {
		f := metricValue(c.vfMetrics[vm][0]) + metricValue(c.vfMetrics[vm][1])
		frameDelta[vm] = f - c.lastFrames[vm]
		c.lastFrames[vm] = f
	}
	if c.cooldown > 0 {
		c.cooldown--
		return
	}
	hot, cold := -1, -1
	for i := range tb.IOHyps {
		if !c.alive[i] {
			continue
		}
		if hot < 0 || busyDelta[i] > busyDelta[hot] {
			hot = i
		}
		if cold < 0 || busyDelta[i] < busyDelta[cold] {
			cold = i
		}
	}
	if hot < 0 || hot == cold {
		return
	}
	if busyDelta[hot] <= c.cfg.ImbalanceRatio*busyDelta[cold] {
		return
	}
	// Never empty an IOhost for balance, and move the single hottest guest
	// so one window's feedback covers one change.
	hotGuests, pick := 0, -1
	for vm, io := range tb.ClientIOhost {
		if io != hot {
			continue
		}
		hotGuests++
		if tb.VRIOClients[vm].Paused() {
			continue // mid-migration; let the blackout finish first
		}
		if pick < 0 || frameDelta[vm] > frameDelta[pick] {
			pick = vm
		}
	}
	if hotGuests < 2 || pick < 0 {
		return
	}
	tb.RehomeClient(pick, cold)
	c.Counters.Inc("rebalances", 1)
	c.logEvent(Event{T: tb.Eng.Now(), Kind: EventRebalance, IOhost: hot, VM: pick, Dst: cold})
	c.cooldown = c.cfg.CooldownTicks
}
