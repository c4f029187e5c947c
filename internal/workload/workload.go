// Package workload reimplements the paper's benchmark suite over the
// simulated rack: Netperf UDP RR and TCP stream (§5's latency and
// throughput microbenchmarks), ApacheBench-driven HTTP, Memslap-driven
// memcached, and Filebench's random-I/O and Webserver personalities. Each
// workload drives core.Guest endpoints in closed loop and records
// latencies/throughput into stats collectors.
package workload

import (
	"encoding/binary"

	"vrio/internal/bufpool"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/hypervisor"
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

// Ensure hypervisor-side types satisfy the contract where used.
var _ = hypervisor.CounterExits

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

// Throughput reports bits/s over the given measurement duration.
func (r *Results) Throughput(window sim.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(r.Bytes*8) / window.Seconds()
}

// OpsPerSec reports transactions/s over the given measurement duration.
func (r *Results) OpsPerSec(window sim.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(r.Ops) / window.Seconds()
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
