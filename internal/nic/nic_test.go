package nic

import (
	"bytes"
	"testing"

	"vrio/internal/ethernet"
	"vrio/internal/link"
	"vrio/internal/sim"
)

func testCfg() Config {
	return Config{ProcessCost: 10, CoalesceDelay: 100, RxRingSize: 4}
}

// loopback builds a NIC whose tx wire feeds a second NIC, and vice versa.
func pair(e *sim.Engine, cfgA, cfgB Config) (*NIC, *NIC) {
	wireAB := link.NewWire(e, 10e9, 5, nil)
	wireBA := link.NewWire(e, 10e9, 5, nil)
	a := New(e, "a", cfgA, wireAB)
	b := New(e, "b", cfgB, wireBA)
	wireAB.SetReceiver(b)
	wireBA.SetReceiver(a)
	return a, b
}

func TestVFPollModeDelivery(t *testing.T) {
	e := sim.NewEngine()
	a, b := pair(e, testCfg(), testCfg())
	src := a.AddVF(ethernet.NewMAC(1), ModePoll)
	dst := b.AddVF(ethernet.NewMAC(2), ModePoll)

	if err := src.SendFrame(ethernet.Frame{
		Dst: dst.MAC(), EtherType: ethernet.EtherTypePlain, Payload: []byte("hi"),
	}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	frames := dst.Poll(0)
	if len(frames) != 1 {
		t.Fatalf("polled %d frames", len(frames))
	}
	f, err := ethernet.Decode(frames[0])
	if err != nil || string(f.Payload) != "hi" {
		t.Errorf("frame %v err %v", f, err)
	}
	if f.Src != src.MAC() {
		t.Errorf("src = %v, want sender VF MAC", f.Src)
	}
	if dst.QueueLen() != 0 {
		t.Error("Poll did not drain")
	}
}

func TestVFPollMax(t *testing.T) {
	e := sim.NewEngine()
	a, b := pair(e, testCfg(), Config{ProcessCost: 0, CoalesceDelay: 0, RxRingSize: 64})
	src := a.AddVF(ethernet.NewMAC(1), ModePoll)
	dst := b.AddVF(ethernet.NewMAC(2), ModePoll)
	for i := 0; i < 5; i++ {
		src.SendFrame(ethernet.Frame{Dst: dst.MAC(), Payload: []byte{byte(i)}})
	}
	e.Run()
	if got := len(dst.Poll(2)); got != 2 {
		t.Errorf("Poll(2) = %d frames", got)
	}
	if got := len(dst.Poll(0)); got != 3 {
		t.Errorf("Poll(0) = %d frames, want remaining 3", got)
	}
}

func TestVFInterruptCoalescing(t *testing.T) {
	e := sim.NewEngine()
	a, b := pair(e, Config{ProcessCost: 0, CoalesceDelay: 0, RxRingSize: 64},
		Config{ProcessCost: 0, CoalesceDelay: 100, RxRingSize: 64})
	src := a.AddVF(ethernet.NewMAC(1), ModePoll)
	dst := b.AddVF(ethernet.NewMAC(2), ModeInterrupt)
	var batches [][]int
	dst.OnInterrupt(func(frames [][]byte) {
		var sizes []int
		for _, fr := range frames {
			sizes = append(sizes, len(fr))
		}
		batches = append(batches, sizes)
	})
	// Three frames in quick succession: one coalesced interrupt.
	for i := 0; i < 3; i++ {
		src.SendFrame(ethernet.Frame{Dst: dst.MAC(), Payload: []byte{byte(i)}})
	}
	e.Run()
	if len(batches) != 1 {
		t.Fatalf("interrupts = %d, want 1 (coalesced)", len(batches))
	}
	if len(batches[0]) != 3 {
		t.Errorf("batch size = %d, want 3", len(batches[0]))
	}
}

func TestVFInterruptRearmsAfterFire(t *testing.T) {
	e := sim.NewEngine()
	a, b := pair(e, Config{ProcessCost: 0, CoalesceDelay: 0, RxRingSize: 64},
		Config{ProcessCost: 0, CoalesceDelay: 10, RxRingSize: 64})
	src := a.AddVF(ethernet.NewMAC(1), ModePoll)
	dst := b.AddVF(ethernet.NewMAC(2), ModeInterrupt)
	irqs := 0
	dst.OnInterrupt(func([][]byte) { irqs++ })
	src.SendFrame(ethernet.Frame{Dst: dst.MAC(), Payload: []byte{1}})
	e.Run()
	// Much later, a second frame: a second interrupt.
	e.At(e.Now()+1000, func() {
		src.SendFrame(ethernet.Frame{Dst: dst.MAC(), Payload: []byte{2}})
	})
	e.Run()
	if irqs != 2 {
		t.Errorf("irqs = %d, want 2", irqs)
	}
}

func TestRxRingOverflowDrops(t *testing.T) {
	e := sim.NewEngine()
	a, b := pair(e, Config{ProcessCost: 0, CoalesceDelay: 0, RxRingSize: 64},
		Config{ProcessCost: 0, CoalesceDelay: 0, RxRingSize: 4})
	src := a.AddVF(ethernet.NewMAC(1), ModePoll)
	dst := b.AddVF(ethernet.NewMAC(2), ModePoll) // nobody polls
	for i := 0; i < 10; i++ {
		src.SendFrame(ethernet.Frame{Dst: dst.MAC(), Payload: []byte{byte(i)}})
	}
	e.Run()
	if dst.QueueLen() != 4 {
		t.Errorf("ring holds %d, want cap 4", dst.QueueLen())
	}
	if dst.Drops != 6 {
		t.Errorf("Drops = %d, want 6", dst.Drops)
	}
}

func TestNICRoutesByMACAndCountsUnknown(t *testing.T) {
	e := sim.NewEngine()
	a, b := pair(e, testCfg(), Config{ProcessCost: 0, CoalesceDelay: 0, RxRingSize: 64})
	src := a.AddVF(ethernet.NewMAC(1), ModePoll)
	vf1 := b.AddVF(ethernet.NewMAC(2), ModePoll)
	vf2 := b.AddVF(ethernet.NewMAC(3), ModePoll)
	src.SendFrame(ethernet.Frame{Dst: vf1.MAC(), Payload: []byte("one")})
	src.SendFrame(ethernet.Frame{Dst: vf2.MAC(), Payload: []byte("two")})
	src.SendFrame(ethernet.Frame{Dst: ethernet.NewMAC(99), Payload: []byte("lost")})
	e.Run()
	if len(vf1.Poll(0)) != 1 || len(vf2.Poll(0)) != 1 {
		t.Error("frames not routed to the right VFs")
	}
	if b.UnknownDst != 1 {
		t.Errorf("UnknownDst = %d, want 1", b.UnknownDst)
	}
}

// A frame too short to carry an Ethernet header is counted, not dropped
// silently.
func TestNICCountsRunts(t *testing.T) {
	e := sim.NewEngine()
	_, b := pair(e, testCfg(), testCfg())
	vf := b.AddVF(ethernet.NewMAC(2), ModePoll)
	b.ReceiveFrame([]byte{1, 2, 3})
	e.Run()
	if b.Runts != 1 {
		t.Errorf("Runts = %d, want 1", b.Runts)
	}
	if n := len(vf.Poll(0)); n != 0 {
		t.Errorf("runt delivered to a VF (%d frames)", n)
	}
}

func TestNICBroadcastReachesAllVFs(t *testing.T) {
	e := sim.NewEngine()
	a, b := pair(e, testCfg(), Config{ProcessCost: 0, CoalesceDelay: 0, RxRingSize: 64})
	src := a.AddVF(ethernet.NewMAC(1), ModePoll)
	vf1 := b.AddVF(ethernet.NewMAC(2), ModePoll)
	vf2 := b.AddVF(ethernet.NewMAC(3), ModePoll)
	src.SendFrame(ethernet.Frame{Dst: ethernet.Broadcast, Payload: []byte("b")})
	e.Run()
	if len(vf1.Poll(0)) != 1 || len(vf2.Poll(0)) != 1 {
		t.Error("broadcast not delivered to all VFs")
	}
}

func TestDuplicateVFMACPanics(t *testing.T) {
	e := sim.NewEngine()
	a, _ := pair(e, testCfg(), testCfg())
	a.AddVF(ethernet.NewMAC(1), ModePoll)
	defer func() {
		if recover() == nil {
			t.Error("duplicate VF MAC did not panic")
		}
	}()
	a.AddVF(ethernet.NewMAC(1), ModePoll)
}

func TestMessagePortRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	a, b := pair(e, Config{ProcessCost: 5, CoalesceDelay: 0, RxRingSize: 4096},
		Config{ProcessCost: 5, CoalesceDelay: 0, RxRingSize: 4096})
	srcVF := a.AddVF(ethernet.NewMAC(1), ModePoll)
	dstVF := b.AddVF(ethernet.NewMAC(2), ModePoll)
	srcPort := NewMessagePort(srcVF, 8100)
	dstPort := NewMessagePort(dstVF, 8100)

	var got []byte
	var gotZC bool
	var gotFrags int
	dstPort.OnMessage = func(src ethernet.MAC, msg []byte, zc bool, frags int) {
		got = msg
		gotZC = zc
		gotFrags = frags
	}

	msg := make([]byte, 64*1024) // full TSO message: 9 fragments at 8100
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	srcPort.Send(dstPort.LocalMAC(), msg)
	e.Run()
	dstPort.HandleBatch(dstVF.Poll(0))
	if !bytes.Equal(got, msg) {
		t.Fatal("message corrupted over the channel")
	}
	if !gotZC {
		t.Error("64KiB at MTU 8100 should reassemble zero-copy")
	}
	if gotFrags != 9 {
		t.Errorf("fragments = %d, want 9", gotFrags)
	}
}

func TestMessagePortPlainFramePassthrough(t *testing.T) {
	e := sim.NewEngine()
	a, b := pair(e, testCfg(), Config{ProcessCost: 0, CoalesceDelay: 0, RxRingSize: 64})
	srcVF := a.AddVF(ethernet.NewMAC(1), ModePoll)
	dstVF := b.AddVF(ethernet.NewMAC(2), ModePoll)
	dstPort := NewMessagePort(dstVF, 8100)
	var plain []byte
	// The frame is lent for the call only: keep a copy.
	dstPort.OnPlainFrame = func(f ethernet.Frame) { plain = append([]byte(nil), f.Payload...) }
	srcVF.SendFrame(ethernet.Frame{
		Dst: dstVF.MAC(), EtherType: ethernet.EtherTypePlain, Payload: []byte("tenant"),
	})
	e.Run()
	dstPort.HandleBatch(dstVF.Poll(0))
	if string(plain) != "tenant" {
		t.Errorf("plain = %q", plain)
	}
}

func TestMessagePortCountsGarbage(t *testing.T) {
	e := sim.NewEngine()
	a, _ := pair(e, testCfg(), testCfg())
	vf := a.AddVF(ethernet.NewMAC(1), ModePoll)
	p := NewMessagePort(vf, 8100)
	p.HandleFrame([]byte{1, 2})
	if p.Errors != 1 {
		t.Errorf("Errors = %d, want 1", p.Errors)
	}
}

func TestMessagePortInterleavedSenders(t *testing.T) {
	e := sim.NewEngine()
	cfg := Config{ProcessCost: 0, CoalesceDelay: 0, RxRingSize: 8192}
	// Two senders on separate NICs feeding one receiver through separate
	// wires is topologically awkward with pair(); emulate by handing frames
	// directly to the port from two sources.
	hub, _ := pair(e, cfg, cfg)
	recvVF := hub.AddVF(ethernet.NewMAC(9), ModePoll)
	port := NewMessagePort(recvVF, 1500)
	var msgs [][]byte
	port.OnMessage = func(_ ethernet.MAC, msg []byte, _ bool, _ int) {
		msgs = append(msgs, msg)
	}
	msgA := bytes.Repeat([]byte{0xA}, 10000)
	msgB := bytes.Repeat([]byte{0xB}, 10000)
	fragsA, _ := ethernet.SegmentMessage(1, 0, msgA, 1500)
	fragsB, _ := ethernet.SegmentMessage(1, 0, msgB, 1500)
	macA, macB := ethernet.NewMAC(1), ethernet.NewMAC(2)
	for i := range fragsA {
		fa := ethernet.Frame{Dst: recvVF.MAC(), Src: macA, EtherType: ethernet.EtherTypeVRIO, Payload: fragsA[i]}
		fb := ethernet.Frame{Dst: recvVF.MAC(), Src: macB, EtherType: ethernet.EtherTypeVRIO, Payload: fragsB[i]}
		ba, _ := fa.Encode(0)
		bb, _ := fb.Encode(0)
		port.HandleFrame(ba)
		port.HandleFrame(bb)
	}
	if len(msgs) != 2 {
		t.Fatalf("messages = %d, want 2", len(msgs))
	}
	if !bytes.Equal(msgs[0], msgA) || !bytes.Equal(msgs[1], msgB) {
		t.Error("interleaved messages corrupted")
	}
}

func TestNICValidation(t *testing.T) {
	e := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero RxRingSize accepted")
		}
	}()
	New(e, "bad", Config{RxRingSize: 0}, nil)
}

// TestVFLinkFlap: a flapped-down port loses traffic in both directions,
// tallied in FlapDrops; raising the link restores delivery.
func TestVFLinkFlap(t *testing.T) {
	e := sim.NewEngine()
	a, b := pair(e, testCfg(), testCfg())
	src := a.AddVF(ethernet.NewMAC(1), ModePoll)
	dst := b.AddVF(ethernet.NewMAC(2), ModePoll)

	send := func() {
		if err := src.SendFrame(ethernet.Frame{
			Dst: dst.MAC(), EtherType: ethernet.EtherTypePlain, Payload: []byte("x"),
		}); err != nil {
			t.Fatal(err)
		}
		e.Run()
	}

	// Receiver down: the frame crosses the wire and dies at dst's PHY.
	dst.SetLinkUp(false)
	if dst.LinkUp() {
		t.Fatal("LinkUp() true after SetLinkUp(false)")
	}
	send()
	if got := len(dst.Poll(0)); got != 0 {
		t.Fatalf("down port delivered %d frames", got)
	}
	if dst.FlapDrops != 1 {
		t.Errorf("rx FlapDrops = %d, want 1", dst.FlapDrops)
	}

	// Transmitter down: the frame never leaves.
	dst.SetLinkUp(true)
	src.SetLinkUp(false)
	send()
	if got := len(dst.Poll(0)); got != 0 {
		t.Fatalf("down transmitter delivered %d frames", got)
	}
	if src.FlapDrops != 1 {
		t.Errorf("tx FlapDrops = %d, want 1", src.FlapDrops)
	}
	if err := src.SendMessage(dst.MAC(), 1, []byte("msg"), ethernet.MinMTU); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if src.FlapDrops != 2 {
		t.Errorf("tx FlapDrops after SendMessage = %d, want 2", src.FlapDrops)
	}

	// Both up again: traffic resumes.
	src.SetLinkUp(true)
	send()
	if got := len(dst.Poll(0)); got != 1 {
		t.Errorf("recovered port delivered %d frames, want 1", got)
	}
}

// TestVFRingCapOverride: squeezing one VF's ring forces overflow drops at
// the squeezed capacity without touching the NIC-wide config.
func TestVFRingCapOverride(t *testing.T) {
	e := sim.NewEngine()
	a, b := pair(e, testCfg(), Config{ProcessCost: 0, CoalesceDelay: 0, RxRingSize: 64})
	src := a.AddVF(ethernet.NewMAC(1), ModePoll)
	dst := b.AddVF(ethernet.NewMAC(2), ModePoll)
	dst.SetRingCap(2)
	for i := 0; i < 5; i++ {
		src.SendFrame(ethernet.Frame{Dst: dst.MAC(), Payload: []byte{byte(i)}})
	}
	e.Run()
	if got := dst.QueueLen(); got != 2 {
		t.Errorf("squeezed ring holds %d frames, want 2", got)
	}
	if dst.Drops != 3 {
		t.Errorf("overflow Drops = %d, want 3", dst.Drops)
	}
	dst.Poll(0)
	dst.SetRingCap(0) // restore the NIC default
	for i := 0; i < 5; i++ {
		src.SendFrame(ethernet.Frame{Dst: dst.MAC(), Payload: []byte{byte(i)}})
	}
	e.Run()
	if got := dst.QueueLen(); got != 5 {
		t.Errorf("restored ring holds %d frames, want 5", got)
	}
}
