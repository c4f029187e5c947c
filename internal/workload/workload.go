// Package workload reimplements the paper's benchmark suite over the
// simulated rack: Netperf UDP RR and TCP stream (§5's latency and
// throughput microbenchmarks), ApacheBench-driven HTTP, Memslap-driven
// memcached, and Filebench's random-I/O and Webserver personalities. Each
// workload drives core.Guest endpoints in closed loop and records
// latencies/throughput into its Results; Summarize aggregates a run's
// Results. internal/cluster's starters wire the workloads onto a testbed.
package workload

import (
	"encoding/binary"

	"vrio/internal/bufpool"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/stats"
)

// Station is a bare-metal load-generator machine: one core, one NIC VF,
// no virtualization. It mirrors the IBM x3550 M2 generators of §5.
type Station struct {
	eng  *sim.Engine
	p    *params.P
	core *cpu.Core
	vf   *nic.VF
	mac  ethernet.MAC

	// subs demuxes received frames by source MAC (keyed by MAC.Key), so one
	// station can drive several server VMs (as the paper's generators do).
	subs map[uint64]func(f ethernet.Frame)

	// Work waiting on the generator core, which completes it in order:
	// interrupt batches (irqs, for rxFn) and frames to send with their
	// continuations (txq and thens, for txFn). Queued frames hold their
	// payloads in slabs of pool.
	pool       *bufpool.Pool
	irqs       nic.BatchQueue
	txq        sim.FIFO[ethernet.Frame]
	thens      sim.FIFO[func()]
	rxFn, txFn func()
}

// NewStation builds a generator around its NIC VF (interrupt mode).
func NewStation(eng *sim.Engine, p *params.P, genCore *cpu.Core, vf *nic.VF) *Station {
	s := &Station{
		eng: eng, p: p, core: genCore, vf: vf, mac: vf.MAC(),
		subs: make(map[uint64]func(ethernet.Frame)),
		pool: vf.Pool(),
	}
	s.rxFn = s.receive
	s.txFn = s.transmit
	vf.OnInterrupt(func(frames [][]byte) {
		// Generator-side IRQ + stack handling.
		s.irqs.Push(frames)
		genCore.Exec(cpu.NoOwner, cpu.KindIRQ, p.HostIRQCost, s.rxFn)
	})
	return s
}

// receive hands the oldest interrupt batch to the subscribers, releasing
// each frame once its handler returns.
func (s *Station) receive() {
	for _, raw := range s.irqs.Pop() {
		if f, err := ethernet.Decode(raw); err == nil {
			if fn := s.subs[f.Src.Key()]; fn != nil {
				fn(f)
			}
		}
		s.pool.PutRaw(raw)
	}
}

// MAC reports the station's address.
func (s *Station) MAC() ethernet.MAC { return s.mac }

// Subscribe routes frames from src to fn. fn borrows each frame for the
// duration of the call; it copies what it keeps.
func (s *Station) Subscribe(src ethernet.MAC, fn func(f ethernet.Frame)) {
	s.subs[src.Key()] = fn
}

// Send transmits a frame after the generator's per-transaction service
// time, then runs then (optional). The frame is only borrowed for the
// duration of the call.
func (s *Station) Send(f ethernet.Frame, then func()) {
	f.Src = s.mac
	f.Payload = s.pool.Clone(f.Payload)
	s.txq.Push(f)
	s.thens.Push(then)
	s.core.Exec(cpu.NoOwner, cpu.KindBusy, s.p.GenServiceCost, s.txFn)
}

// transmit sends the oldest queued frame.
func (s *Station) transmit() {
	f := s.txq.Pop()
	if err := s.vf.SendFrame(f); err != nil {
		panic(err)
	}
	s.pool.PutRaw(f.Payload)
	if then := s.thens.Pop(); then != nil {
		then()
	}
}

// netServer is the interface both core.Guest and Station satisfy for
// serving traffic. Defined structurally to avoid a dependency cycle.
type netServer interface {
	OnNetRx(fn func(f ethernet.Frame))
	SendNet(f ethernet.Frame)
	Compute(d sim.Time, fn func())
	MAC() ethernet.MAC
}

// Results accumulates workload measurements within the measurement window.
type Results struct {
	// Latency holds per-transaction round-trip times (ns).
	Latency stats.Histogram
	// Ops counts completed transactions.
	Ops uint64
	// Bytes counts payload bytes moved.
	Bytes uint64
	// Errors counts failed transactions.
	Errors uint64

	measuring bool
}

// StartMeasuring begins the measurement window (after warmup).
func (r *Results) StartMeasuring() { r.measuring = true }

// StopMeasuring ends the measurement window.
func (r *Results) StopMeasuring() { r.measuring = false }

func (r *Results) record(latency sim.Time, bytes int, err bool) {
	if !r.measuring {
		return
	}
	if err {
		r.Errors++
		return
	}
	r.Ops++
	r.Bytes += uint64(bytes)
	r.Latency.Record(int64(latency))
}

// Summary aggregates one run's per-guest Results over its measured window.
type Summary struct {
	// Ops, Bytes and Errors sum the guests' counts; PerVM lists each
	// guest's Ops in the order summarized.
	Ops, Bytes, Errors uint64
	PerVM              []uint64
	// MeanMicros is the ops-weighted mean latency in µs.
	MeanMicros float64
	// P50Micros, P95Micros and P99Micros read the histogram of every
	// guest's samples merged: the experiments' percentiles.
	P50Micros, P95Micros, P99Micros float64
	// WorstP99Micros is the highest p99 of any one guest's own histogram:
	// the facade's per-VM tail.
	WorstP99Micros float64
	// Gbps and OpsPerSec are the payload and transaction rates over the
	// window, 0 for an empty window.
	Gbps, OpsPerSec float64
}

// Summarize aggregates rs, in order, over the measured window. Merging
// into a scratch histogram leaves rs untouched.
func Summarize(rs []*Results, window sim.Time) Summary {
	var s Summary
	var weighted float64
	var merged stats.Histogram
	for _, r := range rs {
		s.Ops += r.Ops
		s.Bytes += r.Bytes
		s.Errors += r.Errors
		s.PerVM = append(s.PerVM, r.Ops)
		weighted += r.Latency.Mean() * float64(r.Ops)
		s.WorstP99Micros = max(s.WorstP99Micros, float64(r.Latency.Percentile(99))/1000)
		merged.Merge(&r.Latency)
	}
	if s.Ops > 0 {
		s.MeanMicros = weighted / float64(s.Ops) / 1000
	}
	s.P50Micros = float64(merged.Percentile(50)) / 1000
	s.P95Micros = float64(merged.Percentile(95)) / 1000
	s.P99Micros = float64(merged.Percentile(99)) / 1000
	if window > 0 {
		s.Gbps = float64(s.Bytes*8) / window.Seconds() / 1e9
		s.OpsPerSec = float64(s.Ops) / window.Seconds()
	}
	return s
}

// --- request/response framing helpers ---

// seqPayload builds a payload carrying a sequence number and timestamp,
// padded to size.
func seqPayload(seq uint64, now sim.Time, size int) []byte {
	if size < 16 {
		size = 16
	}
	b := make([]byte, size)
	putSeq(b, seq, now)
	return b
}

// putSeq writes seqPayload's sequence number and timestamp into b.
func putSeq(b []byte, seq uint64, now sim.Time) {
	binary.LittleEndian.PutUint64(b[0:], seq)
	binary.LittleEndian.PutUint64(b[8:], uint64(now))
}

func parseSeqPayload(b []byte) (seq uint64, sent sim.Time, ok bool) {
	if len(b) < 16 {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(b[0:]), sim.Time(binary.LittleEndian.Uint64(b[8:])), true
}
