package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/experiments"
	"vrio/internal/sim"
	"vrio/internal/stats"
	"vrio/internal/trace"
)

// layerRounds is how many untraced/traced round pairs the sweep runs per
// simulated workload; trace.overhead is the median of their ratios.
const layerRounds = 3

// sweep accumulates the traced run's per-layer values.
type sweep struct {
	cfg      *config
	o        *outcome
	v        map[string]float64
	shares   map[string]float64
	peak     map[string]string
	builds   []float64
	spans    int
	retrans  float64
	overhead []float64
}

// runLayers is the traced run. The per-layer metrics come from different
// workloads (a layer is measured where the benchmark drives it), so every
// traced run sweeps all four, each phase under its own CPU profile; the
// workload named on the command line only labels the run.
func runLayers(cfg *config, name string) (*outcome, map[string]float64, error) {
	s := &sweep{cfg: cfg, o: newOutcome(), v: map[string]float64{}, shares: map[string]float64{}, peak: map[string]string{}}
	phases := []struct {
		name string
		fn   func() error
	}{
		{"net-rr", s.netRR},
		{"blk-rw", s.blkRW},
		{"wire-blk", s.wireBlk},
		{"eval-quick", s.evalQuick},
	}
	for _, p := range phases {
		if err := s.profile(p.name, p.fn); err != nil {
			return nil, nil, fmt.Errorf("%s phase: %w", p.name, err)
		}
	}
	s.v["cluster.build_s"] = mean(s.builds)
	s.v["trace.spans"] = float64(s.spans)
	s.v["trace.overhead"] = median(s.overhead) - 1
	s.v["transport.retransmits"] = s.retrans
	peak := map[string]string{}
	for _, p := range profiledPackages {
		s.v[p+".host_self_share"] = s.shares[p]
		peak[p] = s.peak[p]
	}
	s.o.note("host_self_share_peak_phase", peak)
	s.o.note("label", name)
	for _, d := range perLayer {
		s.o.detailValue(d.Name, s.v[d.Name], d.Unit, 0, d.Base+"; moves "+d.Target)
	}
	return s.o, s.v, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// profile runs fn under a CPU profile, keeps the profile under the output
// directory, and folds its package shares into each package's peak.
func (s *sweep) profile(phase string, fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := os.WriteFile(s.path("cpu-"+phase, "pprof"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	shares, n, err := selfShares(buf.Bytes())
	if err != nil {
		return err
	}
	s.o.note("profile_samples_"+phase, n)
	for p, sh := range shares {
		if sh > s.shares[p] {
			s.shares[p], s.peak[p] = sh, phase
		}
	}
	return nil
}

func (s *sweep) path(kind, ext string) string {
	return filepath.Join(s.cfg.outDir, fmt.Sprintf("%s-seed%d.%s", kind, s.cfg.seed, ext))
}

// writeSpans keeps a traced testbed's spans, written once the phase ends.
func (s *sweep) writeSpans(kind string, t *trace.Tracer) error {
	f, err := os.Create(s.path("spans-"+kind, "jsonl"))
	if err != nil {
		return err
	}
	if err := t.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMeanUs is the mean duration of the closed spans of one category, in
// simulated µs.
func spanMeanUs(t *trace.Tracer, cat trace.Category) float64 {
	var sum sim.Time
	var n int
	for _, sp := range t.Spans() {
		if sp.Cat == cat && sp.End >= sp.Start {
			sum += sp.End - sp.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// gaugeSum sums one gauge over components named prefix0, prefix1, ...
func gaugeSum(tb *cluster.Testbed, format string, n int, name string) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += tb.Metrics.Value(fmt.Sprintf(format, i), name)
	}
	return sum
}

func (s *sweep) netRR() error {
	var events uint64
	var nsPerEvent []float64
	for round := 0; round < layerRounds; round++ {
		var plain, traced float64
		var roundEvents uint64
		rc := newRefClock(1)
		for _, m := range rrModels {
			u := runRRTestbed(m, s.cfg, false)
			plain += refSeconds(u.wallS, rc.mark())
			t := runRRTestbed(m, s.cfg, true)
			traced += refSeconds(t.wallS, rc.mark())
			for _, r := range []rrResult{u, t} {
				s.o.attempted += r.sent
				s.o.fail("rr_duplicate", r.dup)
				s.o.fail("rr_lost", r.lost)
				s.o.fail("rr_unknown_echo", r.unknown)
			}
			if u.events != t.events {
				s.o.fail("tracing_changed_simulation", 1)
			}
			s.builds = append(s.builds, u.buildS)
			roundEvents += u.events
			if round == 0 {
				if err := s.rrModelLayers(t); err != nil {
					return err
				}
			}
		}
		s.overhead = append(s.overhead, traced/plain)
		nsPerEvent = append(nsPerEvent, plain*1e9/float64(roundEvents))
		events = roundEvents
	}
	s.v["sim.events"] = float64(events)
	s.v["sim.ns_per_event"] = median(nsPerEvent)
	return nil
}

// rrModelLayers reads one traced net-rr testbed.
func (s *sweep) rrModelLayers(r rrResult) error {
	tb := r.tb
	s.spans += tb.Tracer.NumSpans()
	s.v["core."+string(r.model)+".events_per_op"] = r.perOp
	if r.model != core.ModelVRIO {
		s.v["core."+string(r.model)+".sim_p99_us"] = summarize(r.lat).P99
		return nil
	}
	ops := float64(r.sent)
	nvm := len(tb.Guests)
	s.v["virtio.guest_ring_sim_us"] = spanMeanUs(tb.Tracer, trace.CatGuestRing)
	s.v["iohyp.worker_sim_us"] = spanMeanUs(tb.Tracer, trace.CatWorker)
	s.v["core.completion_sim_us"] = spanMeanUs(tb.Tracer, trace.CatCompletion)
	s.v["nic.tx_frames_per_op"] = gaugeSum(tb, "vm%d-vf", nvm, "tx_frames") / ops
	s.v["nic.drops"] = gaugeSum(tb, "vm%d-vf", nvm, "drops")
	s.v["link.forwarded_per_op"] = tb.Metrics.Value("switch", "forwarded") / ops
	var drops float64
	for _, smp := range tb.Metrics.Snapshot() {
		if smp.Component == "switch" && len(smp.Name) > 6 && smp.Name[:6] == "drops_" {
			drops += smp.Value
		}
	}
	s.v["link.drops"] = drops
	s.v["iohyp.utilization"] = tb.Metrics.Value("iohyp", "utilization")
	s.v["iohyp.msgs_per_op"] = tb.Metrics.Value("iohyp", "msgs") / ops
	s.v["iohyp.channel_drops"] = tb.Metrics.Value("iohyp", "channel_drops")
	var wait stats.Histogram
	for i := range tb.Sidecores {
		if m := tb.Metrics.Get(fmt.Sprintf("sidecore%d", i), "wait_ns"); m != nil {
			wait.Merge(m.Hist())
		}
	}
	s.v["iohyp.sidecore_wait_p99_sim_us"] = float64(wait.Percentile(99)) / 1e3
	for _, c := range tb.VRIOClients {
		s.retrans += float64(c.Driver.Counters.Get("retransmits"))
	}
	return s.writeSpans("net-rr", tb.Tracer)
}

func (s *sweep) blkRW() error {
	for round := 0; round < layerRounds; round++ {
		var plain, traced float64
		rc := newRefClock(1)
		for i, bed := range blkBeds(s.cfg.seed, false) {
			u := runBlkTestbed(bed, s.cfg, false)
			plain += refSeconds(u.wallS, rc.mark())
			t := runBlkTestbed(blkBeds(s.cfg.seed, true)[i], s.cfg, false)
			traced += refSeconds(t.wallS, rc.mark())
			for _, r := range []blkResult{u, t} {
				s.countBlk(r)
			}
			if u.events != t.events {
				s.o.fail("tracing_changed_simulation", 1)
			}
			s.builds = append(s.builds, u.buildS)
			if round == 0 {
				if err := s.blkBedLayers(t); err != nil {
					return err
				}
			}
		}
		s.overhead = append(s.overhead, traced/plain)
	}
	// Submission cost, timed in an untraced run of its own so the clock
	// reads do not count against tracing.
	r := runBlkTestbed(blkBeds(s.cfg.seed, false)[0], s.cfg, true)
	s.countBlk(r)
	if r.submits > 0 {
		s.v["core.submit_ns"] = float64(r.submitNs) / float64(r.submits)
	}
	return nil
}

func (s *sweep) countBlk(r blkResult) {
	s.o.attempted += r.ops
	s.o.fail("blk_duplicate", r.dup)
	s.o.fail("blk_lost", r.lost)
	s.o.fail("blk_device_error", r.errs)
	s.o.fail("blk_read_mismatch", r.mismatches)
}

// blkBedLayers reads one traced blk-rw testbed.
func (s *sweep) blkBedLayers(r blkResult) error {
	tb := r.tb
	s.spans += tb.Tracer.NumSpans()
	switch r.name {
	case "vrio":
		s.v["transport.wire_sim_us"] = spanMeanUs(tb.Tracer, trace.CatWire)
		s.v["blockdev.sim_us"] = spanMeanUs(tb.Tracer, trace.CatBlockdev)
		s.v["blockdev.deferred"] = gaugeSum(tb, "blkdev%d", len(tb.BlockDevices), "deferred")
		s.v["blockdev.served"] = gaugeSum(tb, "blkdev%d", len(tb.BlockDevices), "served")
		for _, c := range tb.VRIOClients {
			s.retrans += float64(c.Driver.Counters.Get("retransmits"))
		}
		return s.writeSpans("blk-rw", tb.Tracer)
	case "vrio-volume":
		s.v["core.volume.read_p99_sim_us"] = summarize(r.readLat).P99
		s.v["core.volume.write_p99_sim_us"] = summarize(r.wrLat).P99
		for _, v := range tb.Volumes {
			s.v["core.volume.write_nacks"] += float64(v.Counters.Get("write_nacks"))
			s.v["core.volume.read_retries"] += float64(v.Counters.Get("read_retries"))
			s.v["core.volume.quorum_losses"] += float64(v.Counters.Get("quorum_losses"))
		}
	}
	return nil
}

func (s *sweep) wireBlk() error {
	r, err := runWireRound(s.cfg, true)
	if err != nil {
		return err
	}
	c := r.cell
	ops, dup, lost := ledger(c.counts)
	s.o.attempted += ops
	s.o.fail("wire_duplicate", dup)
	s.o.fail("wire_lost", lost)
	s.o.fail("wire_digest_mismatch", c.mismatches)
	s.o.fail("wire_block_error", c.errs)
	s.o.fail("wire_bad_message", c.bad)
	perCall := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	s.v["transport.submit_ns"] = perCall(c.submitNs, c.submits)
	s.v["transport.deliver_ns"] = perCall(c.deliverNs, c.delivers)
	s.v["netwire.send_ns"] = perCall(c.sendNs, c.sends)
	s.v["netwire.drops"] = float64(c.drops)
	s.v["bufpool.misses"] = float64(c.poolMisses)
	s.retrans += float64(c.retransmits)
	return nil
}

// evalQuick times each experiment of the quick suite alone and serially,
// then the whole suite on nproc workers, whose transcript must match the
// serial one, then the sharded fabric at 1 and at nproc shard workers.
func (s *sweep) evalQuick() error {
	for _, id := range experimentIDs {
		if experiments.Get(id) == nil {
			s.o.fail("experiment_missing", 1)
		}
	}
	var serial float64
	var alone []experiments.Result
	for _, id := range experiments.IDs() {
		t := time.Now()
		alone = append(alone, experiments.Get(id)(true))
		d := time.Since(t).Seconds()
		s.v["experiments."+id+".wall_s"] = d
		serial += d
		s.o.attempted++
	}
	w := s.cfg.workers
	t := time.Now()
	suite := experiments.RunAllParallel(true, w)
	parallel := time.Since(t).Seconds()
	s.o.attempted += uint64(len(suite))
	digest, same := sameTranscript(alone, suite, s.cfg.corrupt)
	if !same {
		s.o.fail("transcript_differs", 1)
	}
	s.o.note("transcript_sha256", digest)

	t = time.Now()
	ev1 := experiments.FabricBenchRun(true, 1)
	one := time.Since(t).Seconds()
	t = time.Now()
	evN := experiments.FabricBenchRun(true, w)
	many := time.Since(t).Seconds()
	s.o.attempted += 2
	if ev1 != evN {
		s.o.fail("shard_workers_changed_simulation", 1)
	}
	s.v["sim.shard_run_s"] = many
	if w > 1 {
		s.v["sim.shard_speedup"] = one / many
		s.v["experiments.parallel_efficiency"] = serial / (float64(w) * parallel)
	} else {
		// One CPU cannot show a parallel speedup: these read 0, marked
		// unmeasured, never 1.0.
		s.o.note("unmeasured", []string{"sim.shard_speedup", "experiments.parallel_efficiency"})
	}
	return nil
}

// transcript renders results the way vrio-experiments prints them.
func transcript(rs []experiments.Result) []byte {
	var b []byte
	for _, r := range rs {
		b = append(b, experiments.Format(r)...)
	}
	return b
}

// sameTranscript reports whether the serial and the parallel suite printed
// the same transcript, and the parallel one's SHA-256, which the report
// keeps so that two commits can be compared. corrupt, when set, damages
// the serial transcript first (the self-tests' proof that the check bites).
func sameTranscript(serial, parallel []experiments.Result, corrupt func([]byte)) (string, bool) {
	a, b := transcript(serial), transcript(parallel)
	if corrupt != nil {
		corrupt(a)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), bytes.Equal(a, b)
}
