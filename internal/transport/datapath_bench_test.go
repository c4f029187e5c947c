package transport

import (
	"bytes"
	"testing"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/virtio"
)

// Datapath benchmarks over the full wire path (Rig): driver send → TSO
// segmentation into pooled frames → NIC rings → wire → the received frame
// itself as the message → endpoint handler, plus ack/response traffic back
// (`make bench-guards`). Each reports the pool loans it takes (loans/op).

func benchPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

// BenchmarkDatapathNetTx measures one MTU-sized net-tx message end to end.
// Steady state is allocation-free (see TestHotPathZeroAlloc), and the one
// loan is the wire frame.
func BenchmarkDatapathNetTx(b *testing.B) {
	r := NewRig()
	frame := benchPayload(1400)
	for i := 0; i < 100; i++ { // warm pools, rings, and timer wheels
		r.Driver.SendNet(1, 3, frame)
		r.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	gets := r.Pool.Stats.Gets
	for i := 0; i < b.N; i++ {
		r.Driver.SendNet(1, 3, frame)
		r.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(r.Pool.Stats.Gets-gets)/float64(b.N), "loans/op")
	if r.NetTxMsgs != uint64(100+b.N) {
		b.Fatalf("delivered %d messages, want %d", r.NetTxMsgs, 100+b.N)
	}
}

// BenchmarkDatapathBlkRoundtrip measures a 4 KiB block request, a header
// and a payload gathered into one message, echoed back through the
// endpoint. Its two loans are the request's and the reply's wire frames.
func BenchmarkDatapathBlkRoundtrip(b *testing.B) {
	r := NewRig()
	hdr, req := benchPayload(20), benchPayload(4096)
	done := 0
	complete := func(resp []byte, err error) {
		if err != nil {
			b.Fatalf("blk roundtrip: %v", err)
		}
		done++
	}
	send := func() {
		r.Driver.SendBlkGather(2, 1, 0, hdr, req, complete)
		r.Step()
	}
	for i := 0; i < 100; i++ {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	gets := r.Pool.Stats.Gets
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	b.ReportMetric(float64(r.Pool.Stats.Gets-gets)/float64(b.N), "loans/op")
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

// TestBlkSlabsZeroCopy pins the buffers a 4 KiB block write and a 4 KiB
// block read take on the vRIO transport, with a front end and a back end
// like the guest's and the IOhost's. The front end keeps the header in a
// buffer of its own and copies the write's payload into a 4 KiB slab; the
// back end copies a read's data into a 4 KiB slab and answers with the
// status byte and that slab, which RespondBlk gathers. The transport adds
// one slab per message, its wire frame, which the NIC's TSO fills from the
// gather list: that is the message's one transport-layer copy. A frame that
// carries 4 KiB of data takes the pool's page-plus-headers class. A
// single-fragment message reaches its consumer as that frame, viewed past
// its headers, so the lease the endpoint hands BlkReq aliases the received
// frame slab, and the reply the driver hands the callback is a view of its
// frame.
func TestBlkSlabsZeroCopy(t *testing.T) {
	const frameHdrs = ethernet.HeaderSize + ethernet.EncapOverhead + HeaderSize
	// The largest one-fragment frame with 4 KiB of data is a volume write:
	// the frame headers, the block and volume headers, then the page. A
	// header that grows past the class must fail here rather than move
	// every such frame to the 8 KiB class.
	if n := frameHdrs + virtio.BlkHdrSize + virtio.VolHdrSize + 4096; n > bufpool.PageFrameSize {
		t.Fatalf("a volume write's %d-byte frame does not fit the %d-byte page-plus-headers class", n, bufpool.PageFrameSize)
	}
	r := NewRig()
	data := benchPayload(4096)
	hdr := []byte{1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0} // a BlkHdr
	var reqCap int
	var reqData []byte
	r.Endpoint.BlkReq = func(src ethernet.MAC, h Header, req *bufpool.Frame) {
		reqCap, reqData = cap(req.B), bytes.Clone(req.B[len(hdr):])
		var slab []byte
		if len(req.B) == len(hdr) { // a read: the back end's data slab
			slab = r.Pool.Clone(data)
		}
		r.Endpoint.RespondBlk(src, h, []byte{0}, slab)
		if slab != nil {
			if cap(slab) != len(data) {
				t.Errorf("read data slab of %d bytes, want the %d-byte class", cap(slab), len(data))
			}
			r.Pool.PutRaw(slab)
		}
		req.Release()
	}
	var respCap int
	var respData []byte
	op := func(payload []byte) {
		var slab []byte
		if payload != nil {
			slab = r.Pool.Clone(payload) // the front end's payload slab
		}
		r.Driver.SendBlkGather(2, 1, 0, hdr, slab, func(resp []byte, err error) {
			if err != nil {
				t.Fatal(err)
			}
			respCap, respData = cap(resp), bytes.Clone(resp[1:])
			if slab != nil {
				r.Pool.PutRaw(slab)
			}
		})
		r.Step()
	}
	for _, c := range []struct {
		name             string
		payload          []byte
		loans            uint64
		reqSlab, rspSlab int
	}{
		{"write", data, 3, bufpool.PageFrameSize, 128}, // payload slab, request frame, reply frame
		{"read", nil, 3, 128, bufpool.PageFrameSize},   // request frame, data slab, reply frame
	} {
		op(c.payload) // warm the pool's classes
		gets := r.Pool.Stats.Gets
		op(c.payload)
		if n := r.Pool.Stats.Gets - gets; n != c.loans {
			t.Errorf("%s: %d pool loans, want %d", c.name, n, c.loans)
		}
		if reqCap != c.reqSlab-frameHdrs {
			t.Errorf("%s: the request lease views %d bytes of its slab, want the received %d-byte frame past its %d bytes of headers",
				c.name, reqCap, c.reqSlab, frameHdrs)
		}
		if respCap != c.rspSlab-frameHdrs {
			t.Errorf("%s: the reply views %d bytes of its slab, want the received %d-byte frame past its %d bytes of headers",
				c.name, respCap, c.rspSlab, frameHdrs)
		}
		want := [2][]byte{c.payload, nil}
		if c.payload == nil {
			want = [2][]byte{nil, data}
		}
		if !bytes.Equal(reqData, want[0]) || !bytes.Equal(respData, want[1]) {
			t.Errorf("%s: payload corrupted in flight", c.name)
		}
	}
}
