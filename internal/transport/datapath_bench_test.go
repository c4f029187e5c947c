package transport

import (
	"testing"

	"vrio/internal/bufpool"
)

// Datapath benchmarks over the full wire path (Rig): driver send → TSO
// segmentation into pooled frames → NIC rings → wire → reassembly into a
// pooled buffer → endpoint handler, plus ack/response traffic back
// (`make bench-guards`).

func benchPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

// BenchmarkDatapathNetTx measures one MTU-sized net-tx message end to end.
// Steady state is allocation-free (see TestHotPathZeroAlloc).
func BenchmarkDatapathNetTx(b *testing.B) {
	r := NewRig()
	frame := benchPayload(1400)
	for i := 0; i < 100; i++ { // warm pools, rings, and timer wheels
		r.Driver.SendNet(1, 3, frame)
		r.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Driver.SendNet(1, 3, frame)
		r.Step()
	}
	b.StopTimer()
	if r.NetTxMsgs != uint64(100+b.N) {
		b.Fatalf("delivered %d messages, want %d", r.NetTxMsgs, 100+b.N)
	}
}

// BenchmarkDatapathBlkRoundtrip measures a 4 KiB block request echoed back
// through the endpoint: chunked both ways, reassembled on each side.
func BenchmarkDatapathBlkRoundtrip(b *testing.B) {
	r := NewRig()
	req := benchPayload(4096)
	done := 0
	complete := func(resp []byte, err error) {
		if err != nil {
			b.Fatalf("blk roundtrip: %v", err)
		}
		done++
	}
	send := func() {
		r.Driver.SendBlk(2, 1, req, complete)
		r.Step()
	}
	for i := 0; i < 100; i++ {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	if done != 100+b.N {
		b.Fatalf("completed %d roundtrips, want %d", done, 100+b.N)
	}
}

// BenchmarkDatapathBlkMQ measures the multi-queue block path at QD=8 over
// NQ=4 queues: 32 outstanding 4 KiB requests, every completion reissuing on
// its own queue, echoed back through the endpoint. This is the submission
// shape the mqscaling experiment drives (`make bench-guards`).
func BenchmarkDatapathBlkMQ(b *testing.B) {
	const nq, qd = 4, 8
	r := NewRig()
	req := benchPayload(4096)
	done, remaining := 0, 0
	var cbs [nq]BlkCallback
	for q := 0; q < nq; q++ {
		queue := uint8(q)
		var cb BlkCallback
		cb = func(resp []byte, err error) {
			if err != nil {
				b.Fatalf("blk mq roundtrip: %v", err)
			}
			done++
			if remaining > 0 {
				remaining--
				r.Driver.SendBlkQ(2, 1, queue, req, cb)
			}
		}
		cbs[q] = cb
	}
	// run completes n requests with up to nq*qd in flight, spread round-robin
	// across the queues; completions keep their queue (closed loop).
	run := func(n int) {
		inflight := n
		if inflight > nq*qd {
			inflight = nq * qd
		}
		remaining = n - inflight
		for i := 0; i < inflight; i++ {
			q := i % nq
			r.Driver.SendBlkQ(2, 1, uint8(q), req, cbs[q])
		}
		r.Step()
	}
	run(100) // warm pools, rings, pending tables, and timer wheels
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if done != 100+b.N {
		b.Fatalf("completed %d roundtrips, want %d", done, 100+b.N)
	}
}

// TestHotPathZeroAllocMQ extends the zero-allocation guard to the
// multi-queue block path: after warmup, one 4 KiB request per queue through
// SendBlkQ — queue-tagged ids, chunking, rings, wire, reassembly, echo, and
// completion dispatch — performs zero heap allocations.
func TestHotPathZeroAllocMQ(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race detector instruments allocations; guard runs in the non-race pass")
	}
	const nq = 4
	r := NewRig()
	req := benchPayload(4096)
	done := 0
	var cbs [nq]BlkCallback
	for q := 0; q < nq; q++ {
		cbs[q] = func(resp []byte, err error) {
			if err != nil {
				t.Errorf("blk mq roundtrip: %v", err)
			}
			done++
		}
	}
	send := func() {
		for q := 0; q < nq; q++ {
			r.Driver.SendBlkQ(2, 1, uint8(q), req, cbs[q])
		}
		r.Step()
	}
	for i := 0; i < 100; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Fatalf("blk mq hot path allocates %.1f allocs/op, want 0 — "+
			"a pending entry, pooled buffer, or queue table is escaping to the heap", allocs)
	}
	if done == 0 {
		t.Fatal("no completions observed")
	}
}

// TestHotPathZeroAlloc is the tier-1 guard for the zero-allocation datapath:
// after warmup, a steady-state net-tx message through the full path — encode,
// rings, wire, reassembly, delivery, ack — performs zero heap allocations.
func TestHotPathZeroAlloc(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race detector instruments allocations; guard runs in the non-race pass")
	}
	r := NewRig()
	frame := benchPayload(1400)
	send := func() {
		r.Driver.SendNet(1, 3, frame)
		r.Step()
	}
	for i := 0; i < 100; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Fatalf("net-tx hot path allocates %.1f allocs/op, want 0 — "+
			"a pooled buffer or reusable batch is escaping to the heap", allocs)
	}
}
