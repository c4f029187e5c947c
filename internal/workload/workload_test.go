package workload

import (
	"math"
	"testing"
	"testing/quick"

	"vrio/internal/sim"
)

func TestResultsMeasurementWindowGating(t *testing.T) {
	var r Results
	r.record(100, 10, false)
	if r.Ops != 0 {
		t.Error("recorded outside the measurement window")
	}
	r.StartMeasuring()
	r.record(100, 10, false)
	r.record(200, 20, false)
	r.record(0, 0, true)
	r.StopMeasuring()
	r.record(300, 30, false)
	if r.Ops != 2 || r.Bytes != 30 || r.Errors != 1 {
		t.Errorf("ops=%d bytes=%d errors=%d", r.Ops, r.Bytes, r.Errors)
	}
	if r.Latency.Count() != 2 {
		t.Errorf("latency samples = %d", r.Latency.Count())
	}
}

func TestResultsRates(t *testing.T) {
	var r Results
	r.StartMeasuring()
	for i := 0; i < 10; i++ {
		r.record(1000, 125, false)
	}
	window := 1 * sim.Millisecond
	s := Summarize([]*Results{&r}, window)
	if s.OpsPerSec != 10_000 {
		t.Errorf("OpsPerSec = %v", s.OpsPerSec)
	}
	// 1250 bytes in 1ms = 10 Mbps.
	if s.Gbps != 0.01 {
		t.Errorf("Gbps = %v", s.Gbps)
	}
	if s := Summarize([]*Results{&r}, 0); s.Gbps != 0 || s.OpsPerSec != 0 {
		t.Error("zero window should report 0")
	}
}

// TestSummarize aggregates two guests whose worst-VM p99 differs from the
// p99 of their merged samples: a busy guest with a short tail and an idle
// one whose only transaction is slow. The latencies sit on histogram bucket
// boundaries, so the percentiles are exact.
func TestSummarize(t *testing.T) {
	var busy, idle Results
	busy.StartMeasuring()
	idle.StartMeasuring()
	for i := 0; i < 180; i++ {
		busy.record(1024, 64, false)
	}
	for i := 0; i < 20; i++ {
		busy.record(2048, 64, false)
	}
	busy.record(0, 0, true)
	idle.record(8192, 1000, false)
	idle.record(0, 0, true)
	idle.record(0, 0, true)

	s := Summarize([]*Results{&busy, &idle}, sim.Millisecond)
	if s.Ops != 201 || s.Bytes != 13800 || s.Errors != 3 || len(s.PerVM) != 2 || s.PerVM[0] != 200 || s.PerVM[1] != 1 {
		t.Errorf("counts: ops=%d bytes=%d errors=%d perVM=%v", s.Ops, s.Bytes, s.Errors, s.PerVM)
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("MeanMicros", s.MeanMicros, (180*1024+20*2048+8192)/201.0/1000)
	near("P50Micros", s.P50Micros, 1.024)
	near("P95Micros", s.P95Micros, 2.048)
	near("P99Micros", s.P99Micros, 2.048)
	near("WorstP99Micros", s.WorstP99Micros, 8.192)
	near("Gbps", s.Gbps, 13800*8/1e-3/1e9)
	near("OpsPerSec", s.OpsPerSec, 201/1e-3)
	if busy.Latency.Count() != 200 || idle.Latency.Count() != 1 {
		t.Error("Summarize changed its inputs' histograms")
	}
}

// TestSummarizeZeroOps: a run with no completed transaction summarizes to
// zeros, not NaN.
func TestSummarizeZeroOps(t *testing.T) {
	var a, b Results
	b.StartMeasuring()
	b.record(0, 0, true)
	s := Summarize([]*Results{&a, &b}, sim.Millisecond)
	for name, v := range map[string]float64{"MeanMicros": s.MeanMicros, "P50Micros": s.P50Micros,
		"P95Micros": s.P95Micros, "P99Micros": s.P99Micros, "WorstP99Micros": s.WorstP99Micros,
		"Gbps": s.Gbps, "OpsPerSec": s.OpsPerSec} {
		if v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	if s.Errors != 1 {
		t.Errorf("Errors = %d, want 1", s.Errors)
	}
}

func TestSeqPayloadRoundTrip(t *testing.T) {
	f := func(seq uint64, now int64, pad uint8) bool {
		size := 16 + int(pad)
		b := seqPayload(seq, sim.Time(now), size)
		if len(b) != size {
			return false
		}
		gotSeq, gotNow, ok := parseSeqPayload(b)
		return ok && gotSeq == seq && gotNow == sim.Time(now)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeqPayloadMinimumSize(t *testing.T) {
	b := seqPayload(1, 2, 3)
	if len(b) != 16 {
		t.Errorf("undersized request not padded: %d", len(b))
	}
	if _, _, ok := parseSeqPayload(b[:15]); ok {
		t.Error("short payload parsed")
	}
}

func TestMacroConfigs(t *testing.T) {
	a := ApacheConfig()
	if a.Concurrency < 1 || a.RespSize <= a.ReqSize {
		t.Errorf("apache config implausible: %+v", a)
	}
	m := MemcachedConfig()
	if m.Concurrency < a.Concurrency {
		t.Error("memslap should be at least as concurrent as apachebench")
	}
}

func TestFilebenchConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("incomplete filebench config accepted")
		}
	}()
	NewFilebench(sim.NewEngine(), nil, nil, FilebenchConfig{})
}

func TestWebserverConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("incomplete webserver config accepted")
		}
	}()
	NewWebserver(sim.NewEngine(), nil, nil, WebserverConfig{})
}

// fakeBlock satisfies BlockIO without any simulation machinery.
type fakeBlock struct{}

func (fakeBlock) WriteBlock(sector uint64, data []byte, done func(error)) { done(nil) }
func (fakeBlock) ReadBlock(sector uint64, sectors int, done func([]byte, error)) {
	done(make([]byte, sectors*512), nil)
}
func (fakeBlock) BlockCPUCost(int) sim.Time { return 0 }

func TestWebserverLayoutInvariants(t *testing.T) {
	eng := sim.NewEngine()
	const capacity = (1 << 30) / 512
	w := NewWebserver(eng, nil, fakeBlock{}, WebserverConfig{
		Threads: 1, Files: 30000, MeanFileSize: 28 * 1024, ChunkSize: 4096,
		OpCost: 1000, OpenCost: 1000, LogWrite: 512,
		CapacitySectors: capacity, SectorSize: 512, Seed: 9,
	})
	if w.FileCount() == 0 {
		t.Fatal("no files laid out")
	}
	if w.FileCount() > 30000 {
		t.Fatalf("laid out %d files", w.FileCount())
	}
	// Non-overlap and capacity: every file's span must fit before the log.
	var mean float64
	for i := 0; i < w.FileCount(); i++ {
		mean += float64(w.fileSize[i])
		chunks := uint64((w.fileSize[i] + 4095) / 4096)
		end := w.fileSectors[i] + chunks*8
		if end > w.logSector {
			t.Fatalf("file %d overlaps the log region", i)
		}
		if i > 0 && w.fileSectors[i] < w.fileSectors[i-1] {
			t.Fatalf("files not laid out in order")
		}
	}
	mean /= float64(w.FileCount())
	if mean < 20*1024 || mean > 36*1024 {
		t.Errorf("mean file size = %.0f, want ≈28KB", mean)
	}
}
