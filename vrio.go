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

// RunNetperfRR runs the closed-loop request-response benchmark on every VM
// for the given measured duration (plus a 10% warmup) and reports latency.
func (t *Testbed) RunNetperfRR(measure time.Duration) NetResult {
	dur := simDur(measure)
	var rrs []*workload.RR
	var cs []cluster.Measurable
	for i, g := range t.tb.Guests {
		workload.InstallRRServer(g, t.tb.P.NetperfRRProcessCost)
		rr := workload.NewRR(t.tb.StationFor(i), g.MAC(), 16)
		rr.Start()
		rrs = append(rrs, rr)
		cs = append(cs, &rr.Results)
	}
	t.tb.RunMeasured(dur/10, dur, cs...)
	return summarizeRR(rrs, dur)
}

func summarizeRR(rrs []*workload.RR, dur sim.Time) NetResult {
	var res NetResult
	var weighted float64
	var p99 float64
	var bytes uint64
	for _, rr := range rrs {
		res.Ops += rr.Results.Ops
		res.PerVM = append(res.PerVM, rr.Results.Ops)
		weighted += rr.Results.Latency.Mean() * float64(rr.Results.Ops)
		if v := float64(rr.Results.Latency.Percentile(99)) / 1000; v > p99 {
			p99 = v
		}
		bytes += rr.Results.Bytes
	}
	if res.Ops > 0 {
		res.MeanLatencyMicros = weighted / float64(res.Ops) / 1000
	}
	res.P99Micros = p99
	res.ThroughputGbps = float64(bytes*8) / dur.Seconds() / 1e9
	return res
}

// RunNetperfStream runs the bulk-transfer benchmark from every VM and
// reports aggregate throughput.
func (t *Testbed) RunNetperfStream(measure time.Duration) NetResult {
	dur := simDur(measure)
	var sts []*workload.Stream
	var cs []cluster.Measurable
	for i, g := range t.tb.Guests {
		st := workload.NewStream(g, t.tb.StationFor(i), t.tb.P.StreamChunk, t.tb.P.StreamPerChunkCost, 16)
		st.Start()
		sts = append(sts, st)
		cs = append(cs, &st.Results)
	}
	t.tb.RunMeasured(dur/10, dur, cs...)
	var res NetResult
	var bytes uint64
	for _, st := range sts {
		res.Ops += st.Results.Ops
		res.PerVM = append(res.PerVM, st.Results.Ops)
		bytes += st.Results.Bytes
	}
	res.ThroughputGbps = float64(bytes*8) / dur.Seconds() / 1e9
	return res
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
	dur := simDur(measure)
	cfg := workload.ApacheConfig()
	cost := t.tb.P.ApacheRequestCost
	if kind == Memcached {
		cfg = workload.MemcachedConfig()
		cost = t.tb.P.MemcachedRequestCost
	}
	var ms []*workload.Macro
	var cs []cluster.Measurable
	for i, g := range t.tb.Guests {
		workload.InstallMacroServer(g, cost, cfg.RespSize)
		m := workload.NewMacro(t.tb.StationFor(i), g.MAC(), cfg)
		m.Start()
		ms = append(ms, m)
		cs = append(cs, &m.Results)
	}
	t.tb.RunMeasured(dur/10, dur, cs...)
	var res NetResult
	var weighted float64
	var bytes uint64
	for _, m := range ms {
		res.Ops += m.Results.Ops
		res.PerVM = append(res.PerVM, m.Results.Ops)
		weighted += m.Results.Latency.Mean() * float64(m.Results.Ops)
		bytes += m.Results.Bytes
	}
	if res.Ops > 0 {
		res.MeanLatencyMicros = weighted / float64(res.Ops) / 1000
	}
	res.ThroughputGbps = float64(bytes*8) / dur.Seconds() / 1e9
	return res
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

// RunFilebench runs the random-I/O personality (readers/writers per VM).
// The testbed must be built WithBlock and WithThreads.
func (t *Testbed) RunFilebench(readers, writers int, measure time.Duration) BlockResult {
	dur := simDur(measure)
	var fbs []*workload.Filebench
	var cs []cluster.Measurable
	for i, g := range t.tb.Guests {
		fb := workload.NewFilebench(t.tb.Eng, g.Threads, g, workload.FilebenchConfig{
			Readers: readers, Writers: writers,
			IOSize:          t.tb.P.FilebenchIOSize,
			OpCost:          t.tb.P.FilebenchOpCost,
			CapacitySectors: t.tb.BlockDevices[i].Store().Capacity(),
			SectorSize:      t.tb.P.SectorSize,
			Seed:            t.tb.Spec.Seed + uint64(i),
		})
		fb.Start()
		fbs = append(fbs, fb)
		cs = append(cs, &fb.Results)
	}
	t.tb.RunMeasured(dur/10, dur, cs...)
	var res BlockResult
	var bytes uint64
	for _, fb := range fbs {
		res.Ops += fb.Results.Ops
		bytes += fb.Results.Bytes
	}
	for _, v := range t.tb.Threads {
		if v != nil {
			res.InvoluntaryCS += v.InvoluntaryCS
			res.VoluntaryCS += v.VoluntaryCS
		}
	}
	res.OpsPerSec = float64(res.Ops) / dur.Seconds()
	res.ThroughputMbps = float64(bytes*8) / dur.Seconds() / 1e6
	return res
}

// RunWebserver runs the Filebench Webserver personality on every VM. The
// testbed must be built WithBlock and WithThreads.
func (t *Testbed) RunWebserver(measure time.Duration) BlockResult {
	dur := simDur(measure)
	var wss []*workload.Webserver
	var cs []cluster.Measurable
	for i, g := range t.tb.Guests {
		ws := workload.NewWebserver(t.tb.Eng, g.Threads, g, workload.WebserverConfig{
			Threads:         t.tb.P.WebserverThreads,
			Files:           t.tb.P.WebserverFileCount,
			MeanFileSize:    t.tb.P.WebserverMeanFileSize,
			ChunkSize:       t.tb.P.FilebenchIOSize,
			OpCost:          t.tb.P.WebserverOpCost,
			OpenCost:        t.tb.P.WebserverOpenCost,
			LogWrite:        t.tb.P.WebserverLogWrite,
			CapacitySectors: t.tb.BlockDevices[i].Store().Capacity(),
			SectorSize:      t.tb.P.SectorSize,
			Seed:            t.tb.Spec.Seed + uint64(i),
		})
		ws.Start()
		wss = append(wss, ws)
		cs = append(cs, &ws.Results)
	}
	t.tb.RunMeasured(dur/10, dur, cs...)
	var res BlockResult
	var bytes uint64
	for _, ws := range wss {
		res.Ops += ws.Results.Ops
		bytes += ws.Results.Bytes
	}
	for _, v := range t.tb.Threads {
		if v != nil {
			res.InvoluntaryCS += v.InvoluntaryCS
			res.VoluntaryCS += v.VoluntaryCS
		}
	}
	res.OpsPerSec = float64(res.Ops) / dur.Seconds()
	res.ThroughputMbps = float64(bytes*8) / dur.Seconds() / 1e6
	return res
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
		poll = append(poll, float64(sc.Accounted(cpuKindPoll))/float64(now))
	}
	return busy, poll
}

// cpuKindPoll aliases the internal poll-accounting kind.
const cpuKindPoll = cpu.KindPoll
