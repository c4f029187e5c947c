package transport

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/sim"
)

// testFabric is an in-memory channel between transport peers with
// programmable loss and delay, standing in for the dedicated Ethernet
// channel.
type testFabric struct {
	eng   *sim.Engine
	nodes map[ethernet.MAC]func(src ethernet.MAC, payload []byte)
	// drop decides per message whether to lose it.
	drop  func(payload []byte) bool
	delay sim.Time
	sent  int
}

func newTestFabric(eng *sim.Engine) *testFabric {
	return &testFabric{
		eng:   eng,
		nodes: make(map[ethernet.MAC]func(ethernet.MAC, []byte)),
		delay: 5 * sim.Microsecond,
	}
}

type testPort struct {
	fabric *testFabric
	mac    ethernet.MAC
}

func (f *testFabric) port(mac ethernet.MAC, recv func(src ethernet.MAC, payload []byte)) *testPort {
	f.nodes[mac] = recv
	return &testPort{fabric: f, mac: mac}
}

func (p *testPort) LocalMAC() ethernet.MAC { return p.mac }

func (p *testPort) Send(dst ethernet.MAC, payload []byte) {
	f := p.fabric
	f.sent++
	if f.drop != nil && f.drop(payload) {
		return
	}
	msg := append([]byte{}, payload...)
	src := p.mac
	f.eng.After(f.delay, func() {
		if recv := f.nodes[dst]; recv != nil {
			recv(src, msg)
		}
	})
}

// harness wires one Driver to one Endpoint over a fabric.
type harness struct {
	eng      *sim.Engine
	fabric   *testFabric
	driver   *Driver
	endpoint *Endpoint
	client   ethernet.MAC
	iohost   ethernet.MAC
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{
		eng:    sim.NewEngine(),
		client: ethernet.NewMAC(1),
		iohost: ethernet.NewMAC(100),
	}
	h.fabric = newTestFabric(h.eng)
	var clientPort, hostPort *testPort
	clientPort = h.fabric.port(h.client, func(_ ethernet.MAC, payload []byte) {
		if err := h.driver.Deliver(payload); err != nil {
			t.Errorf("driver.Deliver: %v", err)
		}
	})
	hostPort = h.fabric.port(h.iohost, func(src ethernet.MAC, payload []byte) {
		if err := h.endpoint.Deliver(src, payload); err != nil {
			t.Errorf("endpoint.Deliver: %v", err)
		}
	})
	h.driver = NewDriver(h.eng, clientPort, h.iohost, cfg)
	h.endpoint = NewEndpoint(h.eng, hostPort, cfg)
	return h
}

// echoBlk makes the endpoint respond to every block request by echoing the
// payload.
func (h *harness) echoBlk() {
	h.endpoint.BlkReq = func(src ethernet.MAC, hdr Header, req *bufpool.Frame) {
		h.endpoint.RespondBlk(src, hdr, req.B)
		req.Release()
	}
}

func TestBlockRoundTrip(t *testing.T) {
	h := newHarness(t, Config{})
	h.echoBlk()
	var got []byte
	h.driver.SendBlkQ(2, 7, 0, []byte("read sector 5"), func(resp []byte, err error) {
		if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
		got = bytes.Clone(resp) // lent for the call only
	})
	h.eng.Run()
	if string(got) != "read sector 5" {
		t.Errorf("response = %q", got)
	}
	if h.driver.InFlightBlk() != 0 {
		t.Error("request still pending after completion")
	}
	if h.driver.Counters.Get("retransmits") != 0 {
		t.Error("retransmitted without loss")
	}
}

func TestBlockChunkingLargeRequestAndResponse(t *testing.T) {
	cfg := Config{MaxChunk: 1000}
	h := newHarness(t, cfg)
	var serverSaw []byte
	h.endpoint.BlkReq = func(src ethernet.MAC, hdr Header, req *bufpool.Frame) {
		serverSaw = append([]byte{}, req.B...)
		// Respond with a large payload too (a big read).
		resp := make([]byte, 5500)
		for i := range resp {
			resp[i] = byte(i * 3)
		}
		h.endpoint.RespondBlk(src, hdr, resp)
		req.Release()
	}
	req := make([]byte, 4096)
	for i := range req {
		req[i] = byte(i)
	}
	var got []byte
	h.driver.SendBlkQ(2, 1, 0, req, func(resp []byte, err error) {
		if err != nil {
			t.Errorf("err: %v", err)
		}
		got = bytes.Clone(resp) // lent for the call only
	})
	h.eng.Run()
	if !bytes.Equal(serverSaw, req) {
		t.Error("chunked request corrupted at endpoint")
	}
	if len(got) != 5500 {
		t.Fatalf("response len = %d, want 5500", len(got))
	}
	for i := range got {
		if got[i] != byte(i*3) {
			t.Fatalf("response corrupt at %d", i)
		}
	}
	if h.endpoint.PendingRequests() != 0 {
		t.Error("endpoint leaked partial requests")
	}
}

func TestBlockRetransmissionRecoversFromLoss(t *testing.T) {
	h := newHarness(t, Config{})
	h.echoBlk()
	// Drop the first two block requests on the wire.
	drops := 0
	h.fabric.drop = func(payload []byte) bool {
		hdr, _, err := Decode(payload)
		if err == nil && hdr.Type == MsgBlkReq && drops < 2 {
			drops++
			return true
		}
		return false
	}
	var got []byte
	var doneAt sim.Time
	h.driver.SendBlkQ(2, 1, 0, []byte("lossy"), func(resp []byte, err error) {
		if err != nil {
			t.Errorf("err: %v", err)
		}
		got = bytes.Clone(resp) // lent for the call only
		doneAt = h.eng.Now()
	})
	h.eng.Run()
	if string(got) != "lossy" {
		t.Fatalf("response = %q", got)
	}
	if rt := h.driver.Counters.Get("retransmits"); rt != 2 {
		t.Errorf("retransmits = %d, want 2", rt)
	}
	// Two expiries: 10ms + 20ms, then success.
	if doneAt < 30*sim.Millisecond || doneAt > 31*sim.Millisecond {
		t.Errorf("completed at %v, want just past 30ms (10+20 doubling)", doneAt)
	}
}

func TestBlockDeviceErrorAfterBudget(t *testing.T) {
	h := newHarness(t, Config{MaxRetransmits: 3})
	h.echoBlk()
	h.fabric.drop = func(payload []byte) bool {
		hdr, _, err := Decode(payload)
		return err == nil && hdr.Type == MsgBlkReq // lose every request
	}
	var gotErr error
	calls := 0
	h.driver.SendBlkQ(2, 1, 0, []byte("doomed"), func(resp []byte, err error) {
		calls++
		gotErr = err
	})
	h.eng.Run()
	if calls != 1 {
		t.Fatalf("callback invoked %d times, want exactly 1", calls)
	}
	if !errors.Is(gotErr, ErrDeviceError) {
		t.Errorf("err = %v, want ErrDeviceError", gotErr)
	}
	// 10+20+40+80 ms of timeouts for initial + 3 retries.
	if now := h.eng.Now(); now < 150*sim.Millisecond || now > 151*sim.Millisecond {
		t.Errorf("gave up at %v, want 150ms", now)
	}
	if h.driver.InFlightBlk() != 0 {
		t.Error("failed request still pending")
	}
}

func TestBlockStaleResponseIgnored(t *testing.T) {
	h := newHarness(t, Config{})
	// The endpoint delays its first response beyond the 10ms timeout, so
	// the driver retransmits; then BOTH responses arrive. The stale one
	// (old ReqID) must be ignored and the callback run once.
	respCount := 0
	h.endpoint.BlkReq = func(src ethernet.MAC, hdr Header, req *bufpool.Frame) {
		respCount++
		delay := sim.Time(0)
		if respCount == 1 {
			delay = 15 * sim.Millisecond
		}
		hdrCopy := hdr
		h.eng.After(delay, func() {
			h.endpoint.RespondBlk(src, hdrCopy, req.B)
			req.Release()
		})
	}
	calls := 0
	h.driver.SendBlkQ(2, 1, 0, []byte("dup"), func(resp []byte, err error) {
		calls++
		if err != nil || string(resp) != "dup" {
			t.Errorf("resp=%q err=%v", resp, err)
		}
	})
	h.eng.Run()
	if calls != 1 {
		t.Errorf("callback ran %d times, want 1", calls)
	}
	if respCount != 2 {
		t.Errorf("endpoint served %d times, want 2 (original + retransmission)", respCount)
	}
	if stale := h.driver.Counters.Get("stale"); stale != 1 {
		t.Errorf("stale = %d, want 1", stale)
	}
}

func TestNetTxRx(t *testing.T) {
	h := newHarness(t, Config{})
	var hostGot []byte
	var hostDev uint16
	h.endpoint.NetTx = func(src ethernet.MAC, deviceID uint16, frame []byte) {
		hostGot = append([]byte(nil), frame...) // lent for the call only
		hostDev = deviceID
		// Reflect a frame back down to the client.
		h.endpoint.SendNetRx(src, deviceID, []byte("pong"))
	}
	var clientGot []byte
	h.driver.NetRx = func(deviceID uint16, frame *bufpool.Frame) {
		clientGot = append([]byte(nil), frame.B...)
		frame.Release()
	}
	h.driver.SendNet(1, 3, []byte("ping"))
	h.eng.Run()
	if string(hostGot) != "ping" || hostDev != 3 {
		t.Errorf("endpoint got %q dev %d", hostGot, hostDev)
	}
	if string(clientGot) != "pong" {
		t.Errorf("client got %q", clientGot)
	}
}

// The net-rx contract: NetRx takes the frame over as a lease on the
// delivered buffer itself, viewed past the transport header, and releasing
// it returns the slab to the pool, so the steady state takes no
// allocations.
func TestNetRxRecycle(t *testing.T) {
	h := newHarness(t, Config{})
	got := 0
	var lent []byte
	h.driver.NetRx = func(_ uint16, frame *bufpool.Frame) {
		got++
		lent = frame.B
		if string(frame.B) != "inbound-frame-bytes" {
			t.Errorf("NetRx frame = %q", frame.B)
		}
		frame.Release()
	}
	p := h.driver.pool()
	payload := []byte("inbound-frame-bytes")
	deliver := func() []byte {
		buf := p.GetRaw(HeaderSize + len(payload))
		EncodeInto(buf, Header{Type: MsgNetRx, DeviceID: 1, ReqID: 1, ChunkCount: 1}, payload)
		if err := h.driver.Deliver(buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	buf := deliver() // first delivery warms the size class
	if &lent[0] != &buf[HeaderSize] {
		t.Error("NetRx frame does not alias the delivered buffer")
	}
	// The recycled buffer is the next one handed out.
	if again := p.GetRaw(len(buf)); &again[0] != &buf[0] {
		t.Error("delivered buffer not back in the pool after NetRx released it")
	} else {
		p.PutRaw(again)
	}
	base := p.Stats.Misses
	for i := 0; i < 100; i++ {
		deliver()
	}
	if got != 101 {
		t.Fatalf("NetRx ran %d times, want 101", got)
	}
	if p.Stats.Misses != base {
		t.Errorf("misses grew %d -> %d; recycled slab not reused", base, p.Stats.Misses)
	}
}

func TestNetIsUnreliable(t *testing.T) {
	h := newHarness(t, Config{})
	h.fabric.drop = func([]byte) bool { return true }
	delivered := false
	h.endpoint.NetTx = func(ethernet.MAC, uint16, []byte) { delivered = true }
	h.driver.SendNet(1, 1, []byte("gone"))
	h.eng.Run()
	if delivered {
		t.Error("dropped net frame was delivered")
	}
	if h.driver.Counters.Get("retransmits") != 0 {
		t.Error("net traffic must not be retransmitted")
	}
}

func TestControlCreateDestroy(t *testing.T) {
	h := newHarness(t, Config{})
	var created, destroyed []uint16
	h.driver.CreateDev = func(devType uint8, id uint16) { created = append(created, id) }
	h.driver.DestroyDev = func(id uint16) { destroyed = append(destroyed, id) }
	ackA, ackB := false, false
	h.endpoint.CreateDevice(h.client, 1, 10, func(ok bool) { ackA = ok })
	h.endpoint.DestroyDevice(h.client, 10, func(ok bool) { ackB = ok })
	h.eng.Run()
	if len(created) != 1 || created[0] != 10 {
		t.Errorf("created = %v", created)
	}
	if len(destroyed) != 1 || destroyed[0] != 10 {
		t.Errorf("destroyed = %v", destroyed)
	}
	if !ackA || !ackB {
		t.Errorf("acks: create=%v destroy=%v", ackA, ackB)
	}
}

func TestControlRetriesUnderLoss(t *testing.T) {
	h := newHarness(t, Config{})
	drops := 0
	h.fabric.drop = func(payload []byte) bool {
		hdr, _, err := Decode(payload)
		if err == nil && hdr.Type == MsgCtrlCreateDev && drops < 2 {
			drops++
			return true
		}
		return false
	}
	acked := false
	h.driver.CreateDev = func(uint8, uint16) {}
	h.endpoint.CreateDevice(h.client, 1, 5, func(ok bool) { acked = ok })
	h.eng.Run()
	if !acked {
		t.Error("control not acked despite retries")
	}
	if r := h.endpoint.Counters.Get("ctrl_retries"); r != 2 {
		t.Errorf("ctrl_retries = %d, want 2", r)
	}
}

func TestControlGivesUpWhenClientGone(t *testing.T) {
	h := newHarness(t, Config{MaxRetransmits: 2})
	h.fabric.drop = func([]byte) bool { return true }
	result := true
	h.endpoint.CreateDevice(h.client, 1, 5, func(ok bool) { result = ok })
	h.eng.Run()
	if result {
		t.Error("control reported success with an unreachable client")
	}
}

func TestDriverRejectsGarbage(t *testing.T) {
	h := newHarness(t, Config{})
	if err := h.driver.Deliver([]byte("junk")); err == nil {
		t.Error("garbage accepted by driver")
	}
	if err := h.endpoint.Deliver(h.client, []byte("junk")); err == nil {
		t.Error("garbage accepted by endpoint")
	}
}

func TestDriverRejectsServerOnlyTypes(t *testing.T) {
	h := newHarness(t, Config{})
	msg := Encode(Header{Type: MsgBlkReq, ChunkCount: 1}, []byte("x"))
	if err := h.driver.Deliver(msg); err == nil {
		t.Error("driver accepted a server-bound message type")
	}
	msg2 := Encode(Header{Type: MsgNetRx, ChunkCount: 1}, []byte("x"))
	if err := h.endpoint.Deliver(h.client, msg2); err == nil {
		t.Error("endpoint accepted a client-bound message type")
	}
}

func TestSendBlkPanicsWithoutCallback(t *testing.T) {
	h := newHarness(t, Config{})
	defer func() {
		if recover() == nil {
			t.Error("SendBlkQ without callback did not panic")
		}
	}()
	h.driver.SendBlkQ(2, 1, 0, []byte("x"), nil)
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(devType uint8, devID uint16, reqID, origID uint64, chunk, count uint16, payload []byte) bool {
		h := Header{
			Type: MsgBlkReq, DeviceType: devType, DeviceID: devID,
			ReqID: reqID, OrigID: origID, Chunk: chunk, ChunkCount: count,
		}
		enc := Encode(h, payload)
		dec, body, err := Decode(enc)
		if err != nil {
			return false
		}
		h.Length = uint32(len(payload)) // Decode fills Length
		return dec == h && bytes.Equal(body, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsLengthMismatch(t *testing.T) {
	enc := Encode(Header{Type: MsgNetTx, ChunkCount: 1}, []byte("abc"))
	if _, _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Error("truncated message accepted")
	}
}

func TestDecodeRejectsBadType(t *testing.T) {
	enc := Encode(Header{Type: 0, ChunkCount: 1}, nil)
	if _, _, err := Decode(enc); !errors.Is(err, ErrBadType) {
		t.Errorf("err = %v, want ErrBadType", err)
	}
	enc2 := Encode(Header{Type: 200, ChunkCount: 1}, nil)
	if _, _, err := Decode(enc2); !errors.Is(err, ErrBadType) {
		t.Errorf("err = %v, want ErrBadType", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgNetTx: "net-tx", MsgNetRx: "net-rx", MsgBlkReq: "blk-req",
		MsgBlkResp: "blk-resp", MsgCtrlCreateDev: "ctrl-create",
		MsgCtrlDestroyDev: "ctrl-destroy", MsgCtrlAck: "ctrl-ack",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
	if MsgType(99).String() != "MsgType(99)" {
		t.Error("unknown type misprinted")
	}
}

// Property: under random loss, every block request either completes with the
// right payload or fails with ErrDeviceError — never silently disappears,
// never completes twice. This is §4.5's validation ("artificially dropping
// I/O requests arriving at the IOhost").
func TestBlockLossInjectionProperty(t *testing.T) {
	seed := uint64(1)
	next := func() uint64 { seed = seed*6364136223846793005 + 1442695040888963407; return seed >> 33 }
	for trial := 0; trial < 30; trial++ {
		h := newHarness(t, Config{MaxRetransmits: 8})
		h.echoBlk()
		lossPct := next() % 60 // up to 60% loss
		h.fabric.drop = func([]byte) bool { return next()%100 < lossPct }
		const reqs = 20
		completions := make([]int, reqs)
		for i := 0; i < reqs; i++ {
			i := i
			payload := []byte{byte(i), byte(trial)}
			h.driver.SendBlkQ(2, 1, 0, payload, func(resp []byte, err error) {
				completions[i]++
				if err == nil && !bytes.Equal(resp, payload) {
					t.Errorf("trial %d req %d: wrong payload %v", trial, i, resp)
				}
			})
		}
		h.eng.Run()
		for i, c := range completions {
			if c != 1 {
				t.Fatalf("trial %d (loss %d%%): request %d completed %d times",
					trial, lossPct, i, c)
			}
		}
	}
}
