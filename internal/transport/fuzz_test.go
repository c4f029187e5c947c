package transport_test

import (
	"testing"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/sim"
	"vrio/internal/transport"
)

// sinkPort swallows transmissions; the fuzz target only cares that the
// receive path survives the bytes.
type sinkPort struct {
	mac  ethernet.MAC
	pool *bufpool.Pool
}

func (p *sinkPort) Send(dst ethernet.MAC, payload []byte) {}
func (p *sinkPort) LocalMAC() ethernet.MAC                { return p.mac }
func (p *sinkPort) BufPool() *bufpool.Pool                { return p.pool }

func fuzzEnc(h transport.Header, payload []byte) []byte {
	b := make([]byte, transport.HeaderSize+len(payload))
	transport.EncodeInto(b, h, payload)
	return b
}

// FuzzWireDecode feeds untrusted bytes to the full §4.2 receive path —
// header decode, chunk reassembly, response matching — on both the
// endpoint and the driver. On a real-wire carrier these bytes come off a
// socket from an untrusted peer, so nothing here may panic, over-read, or
// allocate beyond the configured reassembly cap; hostile inputs must die
// in the bad_msgs/stale counters.
func FuzzWireDecode(f *testing.F) {
	body := make([]byte, 300)
	for i := range body {
		body[i] = byte(i)
	}
	// Well-formed messages of every type, plus hostile shapes the decode
	// hardening exists for.
	f.Add(fuzzEnc(transport.Header{Type: transport.MsgBlkReq, ReqID: 9, OrigID: 9, ChunkCount: 1}, body))
	f.Add(fuzzEnc(transport.Header{Type: transport.MsgBlkReq, ReqID: 9, OrigID: 9, Chunk: 0, ChunkCount: 3}, body[:256]))
	f.Add(fuzzEnc(transport.Header{Type: transport.MsgBlkReq, ReqID: 9, OrigID: 9, Chunk: 2, ChunkCount: 3}, body[:40]))
	f.Add(fuzzEnc(transport.Header{Type: transport.MsgBlkReq, ReqID: 9, OrigID: 9, Chunk: 0, ChunkCount: 65535}, body[:256]))
	f.Add(fuzzEnc(transport.Header{Type: transport.MsgBlkResp, ReqID: 2, OrigID: 1, Chunk: 1, ChunkCount: 3}, body[:256]))
	f.Add(fuzzEnc(transport.Header{Type: transport.MsgNetTx, DeviceID: 3, ReqID: 5, ChunkCount: 1}, body))
	f.Add(fuzzEnc(transport.Header{Type: transport.MsgNetRx, DeviceID: 3, ReqID: 5, ChunkCount: 1}, body))
	f.Add(fuzzEnc(transport.Header{Type: transport.MsgCtrlAck, ReqID: 1, ChunkCount: 1}, nil))
	f.Add(fuzzEnc(transport.Header{Type: transport.MsgCtrlCreateDev, DeviceType: 1, DeviceID: 1, ReqID: 1, ChunkCount: 1}, nil))
	f.Add([]byte{})
	f.Add(fuzzEnc(transport.Header{Type: transport.MsgBlkReq, ChunkCount: 1}, body)[:transport.HeaderSize-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		// Layer 1: the codec itself. A decode that succeeds must describe
		// exactly the bytes it was given.
		if h, msgBody, err := transport.Decode(data); err == nil {
			if int(h.Length) != len(msgBody) {
				t.Fatalf("Decode: Length %d but body %d bytes", h.Length, len(msgBody))
			}
		}

		// Layer 2: the endpoint, under a deliberately small reassembly cap
		// so the fuzzer can reach the allocation guards. The same bytes
		// are delivered twice plus a truncation: duplicate and partial
		// chunks must be as harmless as clean ones.
		eng := sim.NewEngine()
		pool := bufpool.New()
		cfg := transport.Config{MaxChunk: 256, MaxReassembly: 1 << 12, InitialTimeout: sim.Millisecond}
		srcMAC := ethernet.NewMAC(1)
		ep := transport.NewEndpoint(eng, &sinkPort{mac: ethernet.NewMAC(2), pool: pool}, cfg)
		ep.BlkReq = func(src ethernet.MAC, h transport.Header, req *bufpool.Frame) {
			ep.RespondBlk(src, h, req.B)
			req.Release()
		}
		deliver := func(b []byte) {
			buf := pool.GetRaw(len(b))
			copy(buf, b)
			_ = ep.Deliver(srcMAC, buf)
		}
		deliver(data)
		deliver(data)
		if len(data) > 4 {
			deliver(data[:len(data)*3/4])
		}

		// Layer 3: the driver, with one real request in flight so fuzzed
		// responses can reach the pending/reassembly machinery (the seeds
		// include its OrigID/ReqID).
		drv := transport.NewDriver(eng, &sinkPort{mac: srcMAC, pool: pool}, ethernet.NewMAC(2), cfg)
		req := make([]byte, 600) // 3 chunks
		drv.SendBlkQ(1, 1, 0, req, func([]byte, error) {})
		dDeliver := func(b []byte) {
			buf := pool.GetRaw(len(b))
			copy(buf, b)
			_ = drv.Deliver(buf)
		}
		dDeliver(data)
		dDeliver(data)
		eng.RunUntil(eng.Now() + 100*sim.Millisecond) // let retransmit timers run out
	})
}
