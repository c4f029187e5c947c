package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/ethernet"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// rrModels are the four I/O models net-rr runs in turn, same seed and
// topology for each.
var rrModels = []core.ModelName{core.ModelOptimum, core.ModelVRIO, core.ModelElvis, core.ModelBaseline}

// rrSpec is the net-rr rack: 8 VMs on 2 VMhosts, one generator per VM, and
// only 2 sidecores (Elvis: one per VMhost; vRIO: two on the IOhost), so the
// sidecore queues build.
func rrSpec(m core.ModelName, seed uint64, traced bool) cluster.Spec {
	return cluster.Spec{
		Model: m, VMHosts: 2, VMsPerHost: 4,
		SidecoresPerHost: 1, IOhostSidecores: 2,
		StationPerVM: true, Seed: seed, Trace: traced,
	}
}

// window is the measured interval of simulated time.
type window struct{ start, end sim.Time }

func (w window) holds(t sim.Time) bool { return t >= w.start && t < w.end }

// rrClient is one closed-loop netperf RR generator: one 16-byte request in
// flight, the next sent when its echo returns. Every request carries its
// sequence number, and counts is the exactly-once ledger over them.
type rrClient struct {
	eng     *sim.Engine
	st      *workload.Station
	target  ethernet.MAC
	pad     uint64
	seq     uint64
	sentAt  sim.Time
	waiting bool
	stop    bool
	counts  []uint8
	unknown uint64
	win     window
	lat     *[]int64
}

func (c *rrClient) send() {
	if c.stop {
		return
	}
	c.seq++
	c.counts = append(c.counts, 0)
	payload := make([]byte, 16)
	binary.LittleEndian.PutUint64(payload, c.seq)
	binary.LittleEndian.PutUint64(payload[8:], c.pad)
	c.sentAt = c.eng.Now()
	c.waiting = true
	c.st.Send(ethernet.Frame{Dst: c.target, EtherType: ethernet.EtherTypePlain, Payload: payload}, nil)
}

func (c *rrClient) onEcho(f ethernet.Frame) {
	if len(f.Payload) < 16 || binary.LittleEndian.Uint64(f.Payload[8:]) != c.pad {
		c.unknown++
		return
	}
	seq := binary.LittleEndian.Uint64(f.Payload)
	if seq == 0 || seq > uint64(len(c.counts)) {
		c.unknown++
		return
	}
	c.counts[seq-1]++
	if c.counts[seq-1] > 1 || seq != c.seq || !c.waiting {
		return
	}
	c.waiting = false
	if now := c.eng.Now(); c.win.holds(now) {
		*c.lat = append(*c.lat, int64(now-c.sentAt))
	}
	c.send()
}

// table3Events sums the per-VM Table 3 counters (exits, guest interrupts,
// injections, host interrupts) and the IOhost's interrupts.
func table3Events(tb *cluster.Testbed) float64 {
	var sum float64
	for i := range tb.Guests {
		comp := fmt.Sprintf("vm%d", i)
		for _, name := range []string{"exits", "guest_irqs", "irq_injections", "host_irqs"} {
			sum += tb.Metrics.Value(comp, name)
		}
	}
	if tb.IOHyp != nil {
		sum += tb.Metrics.Value("iohyp", "iohost_irqs")
	}
	return sum
}

// rrResult is one testbed of one net-rr round.
type rrResult struct {
	model   core.ModelName
	tb      *cluster.Testbed
	buildS  float64
	wallS   float64
	allocMB float64
	events  uint64
	lat     []int64
	win     window
	// perOp are Table 3 events per transaction inside the window.
	perOp                    float64
	sent, dup, lost, unknown uint64
}

// drain runs the engine until every client is idle (or maxDrain of
// simulated time passes, leaving the stragglers to the ledger).
func drain(eng *sim.Engine, idle func() bool) {
	limit := eng.Now() + maxDrain
	for !idle() && eng.Now() < limit {
		eng.RunUntil(eng.Now() + 100*sim.Microsecond)
	}
}

// maxDrain bounds the drain to quiescence: far above any healthy round
// trip, including §4.5 retransmission.
const maxDrain = 200 * sim.Millisecond

func runRRTestbed(m core.ModelName, cfg *config, traced bool) rrResult {
	t0 := time.Now()
	tb := cluster.Build(rrSpec(m, cfg.seed, traced))
	r := rrResult{model: m, tb: tb, buildS: time.Since(t0).Seconds()}
	r.win = window{start: cfg.sc.rrWarm, end: cfg.sc.rrWarm + cfg.sc.rrWindow}

	rng := sim.NewRNG(cfg.seed ^ 0x5252_7272)
	clients := make([]*rrClient, len(tb.Guests))
	for i, g := range tb.Guests {
		workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
		c := &rrClient{eng: tb.Eng, st: tb.StationFor(i), target: g.MAC(), pad: rng.Uint64(), win: r.win, lat: &r.lat}
		c.st.Subscribe(g.MAC(), c.onEcho)
		clients[i] = c
		tb.Eng.At(sim.Time(rng.Intn(10_000)), c.send)
	}
	var before float64
	tb.Eng.At(r.win.start, func() { before = table3Events(tb) })
	tb.Eng.At(r.win.end, func() {
		for _, c := range clients {
			c.stop = true
		}
		if n := len(r.lat); n > 0 {
			r.perOp = (table3Events(tb) - before) / float64(n)
		}
	})

	var am allocMeter
	ex := tb.Eng.Executed()
	am.start()
	t1 := time.Now()
	tb.Eng.RunUntil(r.win.end)
	drain(tb.Eng, func() bool {
		for _, c := range clients {
			if c.waiting {
				return false
			}
		}
		return true
	})
	r.wallS = time.Since(t1).Seconds()
	r.allocMB = am.stopMB()
	r.events = tb.Eng.Executed() - ex
	for _, c := range clients {
		s, d, l := ledger(c.counts)
		r.sent += s
		r.dup += d
		r.lost += l
		r.unknown += c.unknown
	}
	return r
}

// kops is completed ops per simulated second of the window, in thousands.
func kops(ops int, w window) float64 { return float64(ops) / (w.end - w.start).Seconds() / 1e3 }

// runNetRR is the net-rr workload: rounds of the four models until the
// time budget is spent. The round is the same simulated work every time,
// so wall_s measures the host and the sim metrics must repeat exactly.
func runNetRR(cfg *config) (*outcome, error) {
	o := newOutcome()
	var first *latencySummary
	var firstKops float64
	for p := cfg.pacer(); p.next(); {
		rc := newRefClock(1)
		var times roundTimes
		var alloc float64
		for _, m := range rrModels {
			r := runRRTestbed(m, cfg, false)
			times.add(r.buildS, r.wallS, rc.mark())
			alloc += r.allocMB
			o.attempted += r.sent
			o.fail("rr_duplicate", r.dup)
			o.fail("rr_lost", r.lost)
			o.fail("rr_unknown_echo", r.unknown)
			if m != core.ModelVRIO {
				continue
			}
			s := summarize(r.lat)
			k := kops(len(r.lat), r.win)
			if first == nil {
				first, firstKops = &s, k
			} else if s != *first || k != firstKops {
				o.fail("sim_metric_not_repeated", 1)
			}
		}
		o.addTimes(times)
		o.add("alloc_mb", alloc)
		o.add("p50_us", first.P50)
		o.add("p99_us", first.P99)
		o.add("kops", firstKops)
	}
	o.detail("setup_s", "s (ref)", "summed cluster.Build of the four testbeds, median over rounds")
	o.detail("wall_s", "s (ref)", "measured phase of the four testbeds, median over rounds")
	o.detail("alloc_mb", "MB", "heap allocated in the measured phase, median over rounds")
	o.detailValue("sim_kops", firstKops, "kops/sim-s", first.N, "RR transactions on the vrio testbed")
	o.detailValue("sim_p50_us", first.P50, "us (sim)", first.N, "RR transactions on the vrio testbed")
	o.detailValue("sim_p99_us", first.P99, "us (sim)", first.N, "RR transactions on the vrio testbed")
	return o, nil
}
