package transport

import (
	"bytes"
	"testing"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/sim"
)

// Stress tests for the §4.5 machinery under adversarial channel behaviour
// beyond plain loss: chunked requests where individual chunks drop, delayed
// duplicate delivery, and interleaved concurrent clients.

func TestChunkedRequestSurvivesPartialChunkLoss(t *testing.T) {
	cfg := Config{MaxChunk: 1000, MaxRetransmits: 8}
	h := newHarness(t, cfg)
	h.echoBlk()
	// Drop exactly one data chunk of the first transmission.
	dropped := false
	h.fabric.drop = func(payload []byte) bool {
		hdr, _, err := Decode(payload)
		if err == nil && hdr.Type == MsgBlkReq && hdr.Chunk == 2 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	req := make([]byte, 4500) // 5 chunks
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
	if !bytes.Equal(got, req) {
		t.Fatal("chunked request corrupted after partial loss")
	}
	if !dropped {
		t.Fatal("the drop never triggered")
	}
	// The whole request retransmits (all chunks), under a fresh ReqID.
	if rt := h.driver.Counters.Get("retransmits"); rt != 1 {
		t.Errorf("retransmits = %d, want 1", rt)
	}
	// The half-assembled first attempt stays behind (its ReqID was
	// superseded) but is bounded: the endpoint evicts the oldest partial
	// beyond its cap, so sustained partial loss cannot grow memory.
	if h.endpoint.PendingRequests() > 1 {
		t.Errorf("endpoint holds %d partial requests, want <= 1", h.endpoint.PendingRequests())
	}
}

func TestEndpointEvictsAbandonedPartials(t *testing.T) {
	h := newHarness(t, Config{MaxChunk: 100})
	// Deliver only chunk 0 of many distinct multi-chunk requests, directly,
	// so every one stays partial.
	for i := uint64(1); i <= 2000; i++ {
		msg := Encode(Header{
			Type: MsgBlkReq, DeviceID: 1, ReqID: i, OrigID: i,
			Chunk: 0, ChunkCount: 3,
		}, []byte("partial"))
		if err := h.endpoint.Deliver(h.client, msg); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.endpoint.PendingRequests(); got > 1024 {
		t.Errorf("partial assemblies unbounded: %d", got)
	}
	if h.endpoint.Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestChunkedResponsePartialLoss(t *testing.T) {
	cfg := Config{MaxChunk: 800, MaxRetransmits: 8}
	h := newHarness(t, cfg)
	h.echoBlk()
	dropped := false
	h.fabric.drop = func(payload []byte) bool {
		hdr, _, err := Decode(payload)
		if err == nil && hdr.Type == MsgBlkResp && hdr.Chunk == 1 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	req := make([]byte, 3000)
	for i := range req {
		req[i] = byte(i * 7)
	}
	var got []byte
	calls := 0
	h.driver.SendBlkQ(2, 1, 0, req, func(resp []byte, err error) {
		calls++
		if err != nil {
			t.Errorf("err: %v", err)
		}
		got = bytes.Clone(resp) // lent for the call only
	})
	h.eng.Run()
	if calls != 1 {
		t.Fatalf("callback ran %d times", calls)
	}
	if !bytes.Equal(got, req) {
		t.Fatal("response corrupted after partial chunk loss")
	}
}

func TestDuplicateDeliveryIsIdempotent(t *testing.T) {
	h := newHarness(t, Config{})
	served := 0
	h.endpoint.BlkReq = func(src wireMAC, hdr Header, req *bufpool.Frame) {
		served++
		h.endpoint.RespondBlk(src, hdr, req.B)
		req.Release()
	}
	// The fabric delivers every message twice. Deliver consumes its buffer
	// (the endpoint recycles it), so the duplicate must be a copy.
	orig := h.fabric.nodes[h.iohost]
	h.fabric.nodes[h.iohost] = func(src wireMAC, payload []byte) {
		dup := append([]byte{}, payload...)
		orig(src, payload)
		orig(src, dup)
	}
	calls := 0
	h.driver.SendBlkQ(2, 1, 0, []byte("dup-me"), func(resp []byte, err error) {
		calls++
		if err != nil || string(resp) != "dup-me" {
			t.Errorf("resp=%q err=%v", resp, err)
		}
	})
	h.eng.Run()
	if calls != 1 {
		t.Errorf("completion ran %d times under duplicate delivery", calls)
	}
	if served != 2 {
		t.Errorf("endpoint served %d times (duplicates are re-executed, safely)", served)
	}
	// The duplicate response is dropped as stale/unknown.
	if h.driver.Counters.Get("stale") == 0 {
		t.Error("duplicate response not counted as stale")
	}
}

// harnessMAC / wireMAC alias the fabric's address type.
type harnessMAC = ethernet.MAC
type wireMAC = harnessMAC

func TestManyClientsOneEndpoint(t *testing.T) {
	// 8 drivers share one endpoint through the fabric; all requests
	// complete with their own payloads under 20% loss.
	eng := sim.NewEngine()
	fabric := newTestFabric(eng)
	seed := uint64(5)
	next := func() uint64 { seed = seed*6364136223846793005 + 1; return seed >> 33 }
	fabric.drop = func([]byte) bool { return next()%100 < 20 }

	iohost := ethernet.NewMAC(200)
	var endpoint *Endpoint
	hostPort := fabric.port(iohost, func(src harnessMAC, payload []byte) {
		_ = endpoint.Deliver(src, payload)
	})
	endpoint = NewEndpoint(eng, hostPort, Config{})
	endpoint.BlkReq = func(src harnessMAC, hdr Header, req *bufpool.Frame) {
		endpoint.RespondBlk(src, hdr, req.B)
		req.Release()
	}

	const clients = 8
	completions := make([]int, clients)
	for c := 0; c < clients; c++ {
		c := c
		mac := ethernet.NewMAC(uint32(c + 1))
		var drv *Driver
		clientPort := fabric.port(mac, func(_ harnessMAC, payload []byte) {
			_ = drv.Deliver(payload)
		})
		drv = NewDriver(eng, clientPort, iohost, Config{MaxRetransmits: 10})
		for r := 0; r < 5; r++ {
			payload := []byte{byte(c), byte(r)}
			drv.SendBlkQ(2, uint16(c), 0, payload, func(resp []byte, err error) {
				if err == nil && bytes.Equal(resp, payload) {
					completions[c]++
				}
			})
		}
	}
	eng.Run()
	for c, n := range completions {
		if n != 5 {
			t.Errorf("client %d completed %d/5", c, n)
		}
	}
}

func TestControlPlaneDeviceLifecycle(t *testing.T) {
	h := newHarness(t, Config{})
	var events []string
	h.driver.CreateDev = func(devType uint8, id uint16) {
		events = append(events, "create")
	}
	h.driver.DestroyDev = func(id uint16) {
		events = append(events, "destroy")
	}
	h.endpoint.CreateDevice(h.client, 1, 3, func(ok bool) {
		if !ok {
			t.Error("create not acked")
		}
		h.endpoint.DestroyDevice(h.client, 3, func(ok bool) {
			if !ok {
				t.Error("destroy not acked")
			}
		})
	})
	h.eng.Run()
	if len(events) != 2 || events[0] != "create" || events[1] != "destroy" {
		t.Errorf("lifecycle events = %v", events)
	}
}
