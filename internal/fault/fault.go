// Package fault is the rack's deterministic fault injector: a seed-driven
// plan that damages the simulated fabric the way a hostile datacenter
// would, while keeping every run byte-identical per seed.
//
// A Profile declares what goes wrong and where:
//
//   - LinkFault — frame loss, in-flight corruption (detected and dropped by
//     the receive-side FCS check in package link), exponential delay jitter,
//     and explicit reordering, selected per cable class (channel, uplink,
//     station, local) and per VMhost/IOhost index.
//   - PortFault — VF carrier flaps (link down for a while, traffic in both
//     directions lost at the PHY) and receive-ring squeezes that force
//     overflow drops, selected per VM.
//   - WorkerFault — IOhost sidecore stalls: every worker pinned for a
//     window, modelling memory pressure, SMIs, or hypervisor pauses. Long
//     stalls trip the rack heartbeat detector, exactly like a crash would.
//
// A Plan instantiates a Profile against one simulation: every injection
// site gets its own forked sim.RNG stream (adding a site never perturbs the
// draws of another), all verdicts derive only from the seed and the
// deterministic event order, and the same seed therefore reproduces the
// same faults down to the byte. Attach sites in build order, then Start the
// plan's timers:
//
//	plan := fault.NewPlan(eng, profile, seed)
//	plan.AttachCable(fault.Channels, host, iohost, cable)
//	plan.AttachVF(vm, vf)
//	plan.AttachIOhost(i, hyp)
//	plan.Start()
//
// cluster.Build does all of this when Spec.Fault is set, so most users just
// set a Profile on the spec (or pass -fault-profile to vrio-sim). A nil
// Profile attaches nothing: the datapath keeps its zero-allocation fast
// path, enforced by TestHotPathZeroAlloc and the fault_overhead_ns_op
// benchmark.
//
// Observability: the Plan tallies frames_dropped/frames_corrupted/flaps/
// stalls in Counters (exported as "fault" gauges in the metrics registry by
// cluster), per-wire drops are broken down by reason in link.DropStats, and
// when a Tracer is attached every injected event lands as a zero-length
// CatFault span on the trace timeline next to the requests it hit.
package fault

import (
	"encoding/json"
	"fmt"
	"strings"

	"vrio/internal/sim"
)

// Class selects which kind of cable a LinkFault applies to. The zero value
// matches every cable.
type Class string

// Cable classes, mirroring how cluster.Build wires the rack.
const (
	// Anywhere matches every cable class.
	Anywhere Class = ""
	// Channels are the dedicated VMhost<->IOhost channel cables (the vRIO
	// datapath: all transport traffic, heartbeat-adjacent re-home control).
	Channels Class = "channel"
	// Uplinks are the IOhost<->rack-switch cables (external traffic).
	Uplinks Class = "uplink"
	// Stations are the external-station<->rack-switch cables.
	Stations Class = "station"
	// Locals are the VMhost-local cables of the traditional (non-vRIO)
	// model.
	Locals Class = "local"
)

// Any matches every index in a Host/IOhost/VM selector field.
const Any = -1

// LinkFault injects wire-level damage on matching cables (both directions).
// Probabilities are per frame and drawn in a fixed order (loss, corruption,
// reorder, jitter); at most one verdict applies per frame.
type LinkFault struct {
	// Where selects the cable class; Host/IOhost narrow to one VMhost or
	// IOhost index (Any matches all). Station cables match on Host as the
	// station index; uplinks on IOhost.
	Where  Class `json:"where,omitempty"`
	Host   int   `json:"host"`
	IOhost int   `json:"iohost"`

	// LossProb loses the frame in flight (it still occupied the wire).
	LossProb float64 `json:"loss,omitempty"`
	// CorruptProb flips one random bit; the FCS check catches and drops the
	// frame at delivery.
	CorruptProb float64 `json:"corrupt,omitempty"`
	// JitterProb adds Exp(JitterMean) extra in-flight delay, which also
	// reorders the frame past later FIFO traffic.
	JitterProb float64  `json:"jitter,omitempty"`
	JitterMean sim.Time `json:"jitter_mean,omitempty"`
	// ReorderProb holds the frame back a fixed ReorderDelay — a blunter,
	// heavier-tailed reordering knob than jitter.
	ReorderProb  float64  `json:"reorder,omitempty"`
	ReorderDelay sim.Time `json:"reorder_delay,omitempty"`
}

// UnmarshalJSON defaults the selectors to Any, so JSON profiles that omit
// host/iohost mean "everywhere", not "index 0".
func (l *LinkFault) UnmarshalJSON(b []byte) error {
	type alias LinkFault
	a := alias{Host: Any, IOhost: Any}
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	*l = LinkFault(a)
	return nil
}

// PortFault flaps a VM's client VF carrier and/or squeezes its receive
// ring.
type PortFault struct {
	// VM selects the guest whose VF is damaged (Any matches all).
	VM int `json:"vm"`

	// FlapEvery is the mean (exponential) interval between carrier losses;
	// each flap holds the link down for FlapFor. Zero disables flapping.
	FlapEvery sim.Time `json:"flap_every,omitempty"`
	FlapFor   sim.Time `json:"flap_for,omitempty"`

	// RingCap, when positive, overrides the VF's receive-ring capacity so
	// bursts overflow and drop.
	RingCap int `json:"ring_cap,omitempty"`
}

// UnmarshalJSON defaults VM to Any.
func (p *PortFault) UnmarshalJSON(b []byte) error {
	type alias PortFault
	a := alias{VM: Any}
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	*p = PortFault(a)
	return nil
}

// WorkerFault stalls an IOhost's sidecore workers.
type WorkerFault struct {
	// IOhost selects the stalled host (Any matches all).
	IOhost int `json:"iohost"`

	// StallEvery is the mean (exponential) interval between stalls; each
	// stall pins every worker for StallFor.
	StallEvery sim.Time `json:"stall_every,omitempty"`
	StallFor   sim.Time `json:"stall_for,omitempty"`
}

// UnmarshalJSON defaults IOhost to Any.
func (w *WorkerFault) UnmarshalJSON(b []byte) error {
	type alias WorkerFault
	a := alias{IOhost: Any}
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	*w = WorkerFault(a)
	return nil
}

// Profile is the declarative fault model: what breaks, where, how often.
// The zero Profile injects nothing. Profiles are pure configuration — the
// seed arrives separately (cluster.Spec.FaultSeed / -fault-seed), so one
// profile replays under many seeds.
type Profile struct {
	Links   []LinkFault   `json:"links,omitempty"`
	Ports   []PortFault   `json:"ports,omitempty"`
	Workers []WorkerFault `json:"workers,omitempty"`
}

// Lossy returns a profile losing frames on the channel cables at rate, with
// a quarter of that rate as detected corruption — the faulttolerance
// experiment's sweep point.
func Lossy(rate float64) *Profile {
	return &Profile{Links: []LinkFault{{
		Where: Channels, Host: Any, IOhost: Any,
		LossProb: rate, CorruptProb: rate / 4,
	}}}
}

// Presets, by -fault-profile name.
var presets = map[string]func() *Profile{
	// lossy: 1% channel frame loss + 0.25% corruption. The transport's §4.5
	// retransmission machinery absorbs it; throughput dips, semantics hold.
	"lossy": func() *Profile { return Lossy(0.01) },
	// flaky: light loss plus delay jitter and reordering on the channels —
	// the out-of-order-delivery stressor.
	"flaky": func() *Profile {
		return &Profile{Links: []LinkFault{{
			Where: Channels, Host: Any, IOhost: Any,
			LossProb: 0.005, CorruptProb: 0.002,
			JitterProb: 0.02, JitterMean: 2 * sim.Microsecond,
			ReorderProb: 0.005, ReorderDelay: 3 * sim.Microsecond,
		}}}
	},
	// degraded: every cable in the rack is bad, and client rings are
	// squeezed to 64 slots, so bursts overflow.
	"degraded": degraded,
	// chaos: degraded plus VF carrier flaps and IOhost worker stalls — the
	// everything-at-once soak profile.
	"chaos": func() *Profile {
		p := degraded()
		p.Ports = append(p.Ports, PortFault{
			VM: Any, FlapEvery: 20 * sim.Millisecond, FlapFor: 200 * sim.Microsecond,
		})
		p.Workers = []WorkerFault{{
			IOhost: Any, StallEvery: 10 * sim.Millisecond, StallFor: 300 * sim.Microsecond,
		}}
		return p
	},
}

func degraded() *Profile {
	return &Profile{
		Links: []LinkFault{{
			Where: Anywhere, Host: Any, IOhost: Any,
			LossProb: 0.02, CorruptProb: 0.005,
			JitterProb: 0.05, JitterMean: 5 * sim.Microsecond,
			ReorderProb: 0.01, ReorderDelay: 3 * sim.Microsecond,
		}},
		Ports: []PortFault{{VM: Any, RingCap: 64}},
	}
}

// PresetNames lists the built-in profile names, for CLI help text.
func PresetNames() []string { return []string{"lossy", "flaky", "degraded", "chaos"} }

// ParseProfile resolves a -fault-profile flag value: empty means no faults
// (nil profile), a preset name resolves from the built-ins, and a string
// starting with '{' parses as a JSON Profile.
func ParseProfile(s string) (*Profile, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if mk, ok := presets[s]; ok {
		return mk(), nil
	}
	if strings.HasPrefix(s, "{") {
		var p Profile
		if err := json.Unmarshal([]byte(s), &p); err != nil {
			return nil, fmt.Errorf("fault: parsing JSON profile: %w", err)
		}
		return &p, nil
	}
	return nil, fmt.Errorf("fault: unknown profile %q (presets: %s, or inline JSON)",
		s, strings.Join(PresetNames(), ", "))
}
