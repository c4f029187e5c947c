// Package vrio is a Go reproduction of "Paravirtual Remote I/O" (Kuperman
// et al., ASPLOS 2016): the vRIO rack-scale I/O model, the three I/O models
// it is evaluated against (KVM/virtio baseline, Elvis sidecores, SRIOV+ELI
// optimum), and every substrate they run on — virtio rings, an Ethernet
// fabric with TSO encapsulation, NICs with SRIOV, a reliable transport, an
// I/O hypervisor with polling workers, block devices, an interposition
// chain, and a deterministic discrete-event simulator underneath.
//
// The package is a facade over the internal packages: it builds testbeds
// (racks of VMhosts, an IOhost, load generators) and runs the paper's
// workloads against them. DESIGN.md maps each subsystem; EXPERIMENTS.md
// records the regenerated tables and figures.
//
// Quick start:
//
//	tb := vrio.NewTestbed(vrio.Config{Model: vrio.ModelVRIO, VMs: 4})
//	res := tb.RunNetperfRR(20 * time.Millisecond)
//	fmt.Printf("mean RTT: %.1fµs\n", res.MeanLatencyMicros)
package vrio

import (
	"time"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/cpu"
	"vrio/internal/fault"
	"vrio/internal/interpose"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// Model selects a virtual I/O model.
type Model = core.ModelName

// The five evaluated configurations.
const (
	// ModelBaseline is trap-and-emulate KVM/virtio (the state of practice).
	ModelBaseline = core.ModelBaseline
	// ModelElvis is local-sidecore paravirtualization (the state of the art).
	ModelElvis = core.ModelElvis
	// ModelVRIO is the paper's contribution: remote sidecores on an IOhost.
	ModelVRIO = core.ModelVRIO
	// ModelVRIONoPoll is vRIO with an interrupt-driven IOhost (ablation).
	ModelVRIONoPoll = core.ModelVRIONoPoll
	// ModelOptimum is SRIOV+ELI device assignment (no interposition).
	ModelOptimum = core.ModelOptimum
)

// Config shapes a testbed. The zero value plus a Model gives one VMhost
// with one VM, one load generator, and — for vRIO — an IOhost with one
// sidecore, the Figure 6 topology.
type Config struct {
	// Model is the I/O model under test.
	Model Model
	// VMs per VMhost (default 1).
	VMs int
	// VMHosts in the rack (default 1; Figure 13 uses 4).
	VMHosts int
	// Sidecores: per VMhost for Elvis, at the IOhost for vRIO (default 1).
	Sidecores int
	// WithBlock attaches a 1 GB paravirtual block device per VM (remote on
	// the IOhost under vRIO, local otherwise).
	WithBlock bool
	// WithThreads attaches a guest thread scheduler (required by the
	// Filebench workloads).
	WithThreads bool
	// Interpose, if non-nil, builds each VM's interposition chain.
	Interpose func(host, vm int) *interpose.Chain
	// GeneratorPerVM gives every VM its own load generator.
	GeneratorPerVM bool
	// Fault arms deterministic fault injection across the rack (see
	// ParseFaultProfile and internal/fault). Nil injects nothing and keeps
	// the datapath's zero-allocation fast path.
	Fault *FaultProfile
	// FaultSeed seeds the fault draws independently of Seed (0 derives it
	// from Seed), so one workload can replay under different fault draws.
	FaultSeed uint64
	// Seed makes runs reproducible; equal seeds give identical results.
	Seed uint64
	// Params overrides the calibrated defaults (see DefaultParams).
	Params *Params
}

// FaultProfile declares what the fault injector breaks, where, and how
// often (see internal/fault for the full model).
type FaultProfile = fault.Profile

// ParseFaultProfile resolves a -fault-profile flag value: "" means none,
// a preset name ("lossy", "flaky", "degraded", "chaos") resolves from the
// built-ins, and a '{'-prefixed string parses as a JSON profile.
func ParseFaultProfile(s string) (*FaultProfile, error) { return fault.ParseProfile(s) }

// Params is the full calibrated parameter set (see internal/params for
// field documentation).
type Params = params.P

// DefaultParams returns the calibrated defaults used throughout
// EXPERIMENTS.md.
func DefaultParams() Params { return params.Default() }

// Testbed is an assembled simulated rack.
type Testbed struct {
	tb *cluster.Testbed
}

// NewTestbed builds a rack per the config.
func NewTestbed(cfg Config) *Testbed {
	spec := cluster.Spec{
		Model:            cfg.Model,
		VMHosts:          cfg.VMHosts,
		VMsPerHost:       cfg.VMs,
		SidecoresPerHost: cfg.Sidecores,
		IOhostSidecores:  cfg.Sidecores,
		WithBlock:        cfg.WithBlock,
		WithThreads:      cfg.WithThreads,
		NetChain:         cfg.Interpose,
		BlkChain:         cfg.Interpose,
		StationPerVM:     cfg.GeneratorPerVM,
		Fault:            cfg.Fault,
		FaultSeed:        cfg.FaultSeed,
		Params:           cfg.Params,
		Seed:             cfg.Seed,
	}
	return &Testbed{tb: cluster.Build(spec)}
}

// Raw exposes the underlying cluster testbed for advanced scenarios
// (custom workloads, direct guest access, counter inspection).
func (t *Testbed) Raw() *cluster.Testbed { return t.tb }

// WrapTestbed adapts a hand-assembled cluster testbed to the facade's
// workload runners (for topologies Config cannot express).
func WrapTestbed(tb *cluster.Testbed) *Testbed { return &Testbed{tb: tb} }

// simDur converts wall-style durations to simulated time.
func simDur(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) }

// NetResult summarizes a network workload run.
type NetResult struct {
	// Ops is the number of completed transactions (or chunks).
	Ops uint64
	// MeanLatencyMicros is the ops-weighted mean round trip in µs.
	MeanLatencyMicros float64
	// P99Micros is the highest per-VM 99th percentile latency in µs: each
	// VM's histogram is read on its own and the worst VM is reported, not
	// the percentile of all VMs' samples merged.
	P99Micros float64
	// ThroughputGbps is the aggregate payload throughput.
	ThroughputGbps float64
	// PerVM breaks ops down by VM.
	PerVM []uint64
}

// run starts a workload on every guest with start and summarizes the
// measured duration, after a 10% warmup.
func (t *Testbed) run(measure time.Duration, start func(i int) *workload.Results) workload.Summary {
	dur := simDur(measure)
	return t.tb.RunEach(dur/10, dur, start)
}

func netResult(s workload.Summary) NetResult {
	return NetResult{Ops: s.Ops, MeanLatencyMicros: s.MeanMicros, P99Micros: s.WorstP99Micros,
		ThroughputGbps: s.Gbps, PerVM: s.PerVM}
}

// RunNetperfRR runs the closed-loop request-response benchmark on every VM
// for the given measured duration (plus a 10% warmup) and reports latency.
func (t *Testbed) RunNetperfRR(measure time.Duration) NetResult {
	return netResult(t.run(measure, t.tb.StartRR))
}

// RunNetperfStream runs the bulk-transfer benchmark from every VM and
// reports aggregate throughput.
func (t *Testbed) RunNetperfStream(measure time.Duration) NetResult {
	return netResult(t.run(measure, t.tb.StartStream))
}

// MacroKind selects a macrobenchmark personality.
type MacroKind int

// Macro kinds.
const (
	// Apache is ApacheBench-driven HTTP.
	Apache MacroKind = iota
	// Memcached is Memslap-driven key-value.
	Memcached
)

// RunMacro runs Apache or Memcached against every VM.
func (t *Testbed) RunMacro(kind MacroKind, measure time.Duration) NetResult {
	cfg, cost := workload.ApacheConfig(), t.tb.P.ApacheRequestCost
	if kind == Memcached {
		cfg, cost = workload.MemcachedConfig(), t.tb.P.MemcachedRequestCost
	}
	return netResult(t.run(measure, func(i int) *workload.Results { return t.tb.StartMacro(i, cfg, cost) }))
}

// BlockResult summarizes a block workload run.
type BlockResult struct {
	// Ops is completed block operations (or served files for Webserver).
	Ops uint64
	// OpsPerSec is the aggregate rate.
	OpsPerSec float64
	// ThroughputMbps is payload throughput.
	ThroughputMbps float64
	// InvoluntaryCS / VoluntaryCS aggregate guest scheduler activity (the
	// Figure 14 mechanism).
	InvoluntaryCS uint64
	VoluntaryCS   uint64
}

func (t *Testbed) blockResult(s workload.Summary) BlockResult {
	res := BlockResult{Ops: s.Ops, OpsPerSec: s.OpsPerSec, ThroughputMbps: s.Gbps * 1e3}
	for _, v := range t.tb.Threads {
		if v != nil {
			res.InvoluntaryCS += v.InvoluntaryCS
			res.VoluntaryCS += v.VoluntaryCS
		}
	}
	return res
}

// RunFilebench runs the random-I/O personality (readers/writers per VM).
// The testbed must be built WithBlock and WithThreads.
func (t *Testbed) RunFilebench(readers, writers int, measure time.Duration) BlockResult {
	return t.blockResult(t.run(measure, func(i int) *workload.Results {
		return t.tb.StartFilebench(i, readers, writers, t.tb.Spec.Seed)
	}))
}

// RunWebserver runs the Filebench Webserver personality on every VM. The
// testbed must be built WithBlock and WithThreads.
func (t *Testbed) RunWebserver(measure time.Duration) BlockResult {
	return t.blockResult(t.run(measure, func(i int) *workload.Results {
		return t.tb.StartWebserver(i, t.tb.Spec.Seed, t.tb.Spec.VMHosts)
	}))
}

// MigrateVM live-migrates a vRIO guest to another VMhost (§4.6): the VM
// blacks out for Params.MigrationDowntime, re-attaches through a fresh
// SRIOV VF on the destination's channel, and resumes — its outward-facing
// address and remote block device never move. done (optional) runs at
// resume. Panics on non-vRIO testbeds.
func (t *Testbed) MigrateVM(vm, dstHost int, done func()) {
	t.tb.MigrateVM(vm, dstHost, done)
}

// EventCounts returns the Table 3 virtualization-event counters for VM i:
// "exits", "guest_irqs", "irq_injections", "host_irqs".
func (t *Testbed) EventCounts(vm int) map[string]uint64 {
	out := map[string]uint64{}
	c := &t.tb.Guests[vm].VM.Counters
	for _, name := range c.Names() {
		out[name] = c.Get(name)
	}
	return out
}

// SidecoreUtilization reports each sidecore's busy fraction (useful work)
// and, for polling sidecores, the fraction burned polling.
func (t *Testbed) SidecoreUtilization() (busy, poll []float64) {
	now := t.tb.Eng.Now()
	if now == 0 {
		return nil, nil
	}
	for _, sc := range t.tb.Sidecores {
		busy = append(busy, float64(sc.BusyTime())/float64(now))
		poll = append(poll, float64(sc.Accounted(cpu.KindPoll))/float64(now))
	}
	return busy, poll
}
