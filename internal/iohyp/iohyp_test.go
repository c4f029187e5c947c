package iohyp

import (
	"bytes"
	"testing"

	"vrio/internal/blockdev"
	"vrio/internal/bufpool"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/interpose"
	"vrio/internal/link"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/transport"
	"vrio/internal/virtio"
)

// rig is a minimal IOhost + one IOclient + one external node.
type rig struct {
	eng *sim.Engine
	p   params.P
	hyp *IOHypervisor

	clientMAC  ethernet.MAC
	clientPort *nic.MessagePort
	driver     *transport.Driver

	extVF  *nic.VF // the external party's NIC
	extMAC ethernet.MAC
}

// poll drains up to max frames (all if max <= 0) queued at vf.
func poll(vf *nic.VF, max int) [][]byte {
	var out [][]byte
	vf.PollInto(&out, max)
	return out
}

func newRig(t testing.TB, sidecores int, mode Mode) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(), p: params.Default()}
	r.clientMAC = ethernet.NewMAC(1)
	r.extMAC = ethernet.NewMAC(200)

	// Channel cable: client <-> IOhost.
	chCable := link.NewDuplex(r.eng, r.p.LinkBandwidth40G, r.p.WireLatency)
	nicCfg := nic.Config{ProcessCost: r.p.NICProcessCost, CoalesceDelay: r.p.IRQCoalesceDelay, RxRingSize: r.p.RxRingSize}
	clientNIC := nic.New(r.eng, "client", nicCfg, chCable.AtoB)
	iohostChNIC := nic.New(r.eng, "iohost-ch", nicCfg, chCable.BtoA)
	chCable.AtoB.SetReceiver(iohostChNIC)
	chCable.BtoA.SetReceiver(clientNIC)

	clientVF := clientNIC.AddVF(r.clientMAC, nic.ModePoll)
	iohostVF := iohostChNIC.AddVF(ethernet.NewMAC(100), nic.ModePoll)

	// Uplink cable: external node <-> IOhost.
	upCable := link.NewDuplex(r.eng, r.p.LinkBandwidth10G, r.p.WireLatency)
	extNIC := nic.New(r.eng, "ext", nicCfg, upCable.AtoB)
	iohostUpNIC := nic.New(r.eng, "iohost-up", nicCfg, upCable.BtoA)
	upCable.AtoB.SetReceiver(iohostUpNIC)
	upCable.BtoA.SetReceiver(extNIC)
	// One buffer pool for the whole rig, as a testbed cell shares one, so
	// buffers that cross NICs come back to the pool they left.
	pool := bufpool.New()
	for _, n := range []*nic.NIC{clientNIC, iohostChNIC, extNIC, iohostUpNIC} {
		n.SetPool(pool)
	}
	r.extVF = extNIC.AddVF(r.extMAC, nic.ModePoll)
	uplinkVF := iohostUpNIC.AddVF(ethernet.NewMAC(101), nic.ModePoll)
	// The uplink terminates traffic for every F MAC behind the IOhost.
	iohostUpNIC.Promiscuous = uplinkVF

	// IOhost.
	var cores []*cpu.Core
	for i := 0; i < sidecores; i++ {
		cores = append(cores, cpu.New(r.eng, r.p.ContextSwitchCost))
	}
	r.hyp = New(r.eng, Config{Params: &r.p, Mode: mode, Sidecores: cores, Seed: 1})
	port := r.hyp.AttachChannelNIC(iohostVF)
	r.hyp.AttachUplink(uplinkVF)
	r.hyp.BindClient(r.clientMAC, port)

	// Client transport driver; frames are handled as soon as they land
	// (the client's own costs are out of scope here).
	r.clientPort = nic.NewMessagePort(clientVF, r.p.MTU)
	r.driver = transport.NewDriver(r.eng, r.clientPort, ethernet.NewMAC(100), transport.Config{})
	r.clientPort.OnMessage = func(src ethernet.MAC, msg *bufpool.Frame, _ bool, _ int) {
		if err := r.driver.DeliverFrame(msg); err != nil {
			t.Errorf("client driver: %v", err)
		}
	}
	clientVF.NotifyRx = func() {
		r.eng.After(1, func() { r.clientPort.HandleBatch(poll(clientVF, 0)) })
	}
	return r
}

func TestBlockWriteReadThroughIOhost(t *testing.T) {
	r := newRig(t, 2, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 10000)
	dev := blockdev.NewDevice(r.eng, store, r.p.RamdiskLatency, 4)
	r.hyp.RegisterBlkDeviceMQ(r.clientMAC, 1, dev, nil, 1)

	// Write 4 KiB.
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	req := virtio.BlkReq{Type: virtio.BlkOut, Sector: 64, Data: payload}.Append(nil)
	wrote := false
	r.driver.SendBlkQ(uint8(virtio.DeviceBlk), 1, 0, req, func(resp []byte, err error) {
		if err != nil || len(resp) != 1 || resp[0] != virtio.BlkOK {
			t.Errorf("write resp=%v err=%v", resp, err)
		}
		wrote = true
	})
	r.eng.Run()
	if !wrote {
		t.Fatal("write never completed")
	}
	got, err := store.Read(64, 4096/r.p.SectorSize)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatal("store does not contain written data")
	}

	// Read it back through the stack.
	rd := virtio.BlkReq{Type: virtio.BlkIn, Sector: 64, Sectors: 4096 / r.p.SectorSize}.Append(nil)
	var readBack []byte
	r.driver.SendBlkQ(uint8(virtio.DeviceBlk), 1, 0, rd, func(resp []byte, err error) {
		if err != nil || len(resp) < 1 || resp[0] != virtio.BlkOK {
			t.Errorf("read resp err=%v", err)
			return
		}
		readBack = bytes.Clone(resp[1:]) // lent for the call only
	})
	r.eng.Run()
	if !bytes.Equal(readBack, payload) {
		t.Errorf("read-back %d bytes, mismatch", len(readBack))
	}
	if r.hyp.Counters.Get("blk_reqs") != 2 {
		t.Errorf("blk_reqs = %d", r.hyp.Counters.Get("blk_reqs"))
	}
}

func TestBlockAESInterposition(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 1000)
	dev := blockdev.NewDevice(r.eng, store, r.p.RamdiskLatency, 1)
	aes, err := interpose.NewAES(bytes.Repeat([]byte{9}, 32), r.p.AESPerByteCost)
	if err != nil {
		t.Fatal(err)
	}
	r.hyp.RegisterBlkDeviceMQ(r.clientMAC, 1, dev, interpose.NewChain(aes), 1)

	plain := bytes.Repeat([]byte{0x11}, 512)
	req := virtio.BlkReq{Type: virtio.BlkOut, Sector: 0, Data: plain}.Append(nil)
	r.driver.SendBlkQ(uint8(virtio.DeviceBlk), 1, 0, req, func(resp []byte, err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	r.eng.Run()

	// At rest, the store holds ciphertext.
	atRest, _ := store.Read(0, 1)
	if bytes.Equal(atRest, plain) {
		t.Error("data at rest is not encrypted")
	}

	// Reading through the chain decrypts.
	rd := virtio.BlkReq{Type: virtio.BlkIn, Sector: 0, Sectors: 1}.Append(nil)
	var back []byte
	r.driver.SendBlkQ(uint8(virtio.DeviceBlk), 1, 0, rd, func(resp []byte, err error) {
		if err == nil && len(resp) > 0 && resp[0] == virtio.BlkOK {
			back = bytes.Clone(resp[1:]) // lent for the call only
		}
	})
	r.eng.Run()
	if !bytes.Equal(back, plain) {
		t.Error("read through AES chain did not decrypt")
	}
}

func TestNetTxForwardsToUplinkWithFMAC(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	fMAC := ethernet.NewMAC(50)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)

	inner := ethernet.Frame{Dst: r.extMAC, Src: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("to the world")}
	raw := inner.EncodeTo(make([]byte, inner.Len()))
	r.driver.SendNet(uint8(virtio.DeviceNet), 2, raw)
	r.eng.Run()

	frames := poll(r.extVF, 0)
	if len(frames) != 1 {
		t.Fatalf("external node got %d frames", len(frames))
	}
	f, _ := ethernet.Decode(frames[0])
	if string(f.Payload) != "to the world" {
		t.Errorf("payload = %q", f.Payload)
	}
	if f.Src != fMAC {
		t.Errorf("source = %v, want F MAC %v", f.Src, fMAC)
	}
	if r.hyp.Counters.Get("net_fwd_uplink") != 1 {
		t.Errorf("net_fwd_uplink = %d", r.hyp.Counters.Get("net_fwd_uplink"))
	}
}

func TestExternalFrameDeliveredToClient(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	fMAC := ethernet.NewMAC(50)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)

	var gotDev uint16
	var gotFrame []byte
	r.driver.NetRx = func(deviceID uint16, frame *bufpool.Frame) {
		gotDev = deviceID
		gotFrame = append([]byte(nil), frame.B...)
		frame.Release()
	}
	r.extVF.SendFrame(ethernet.Frame{Dst: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("inbound")})
	r.eng.Run()
	if gotDev != 2 {
		t.Fatalf("device = %d (frame len %d)", gotDev, len(gotFrame))
	}
	f, err := ethernet.Decode(gotFrame)
	if err != nil || string(f.Payload) != "inbound" {
		t.Errorf("frame payload = %q err=%v", f.Payload, err)
	}
	if r.hyp.Counters.Get("net_in") != 1 {
		t.Errorf("net_in = %d", r.hyp.Counters.Get("net_in"))
	}
}

func TestVMToVMLocalForwarding(t *testing.T) {
	r := newRig(t, 2, ModePolling)
	fA, fB := ethernet.NewMAC(50), ethernet.NewMAC(51)
	r.hyp.RegisterNetDevice(r.clientMAC, 1, fA, nil)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fB, nil)

	var gotDev uint16
	var got []byte
	r.driver.NetRx = func(deviceID uint16, frame *bufpool.Frame) {
		gotDev, got = deviceID, bytes.Clone(frame.B)
		frame.Release()
	}
	inner := ethernet.Frame{Dst: fB, Src: fA, EtherType: ethernet.EtherTypePlain, Payload: []byte("vm2vm")}
	raw := inner.EncodeTo(make([]byte, inner.Len()))
	pool := r.hyp.bufPool()
	for i := range 2 { // a cold pool and a warm one make the same loans
		gets := pool.Stats.Gets
		r.driver.SendNet(uint8(virtio.DeviceNet), 1, raw)
		r.eng.Run()
		if gotDev != 2 || !bytes.Equal(got, raw) {
			t.Errorf("frame %d: dev=%d frame=%q, want dev=2 frame=%q", i, gotDev, got, raw)
		}
		// The client's frame and the IOhost's net-rx frame, both built by
		// their NIC's TSO: the IOhost gathers the forwarded frame's header
		// and payload straight into its net-rx frame, without a slab of its
		// own in between.
		if n := pool.Stats.Gets - gets; n != 2 {
			t.Errorf("frame %d: %d pool loans, want 2", i, n)
		}
	}
	if r.hyp.Counters.Get("net_fwd_local") != 2 {
		t.Errorf("net_fwd_local = %d", r.hyp.Counters.Get("net_fwd_local"))
	}
}

func TestFirewallDropCounted(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	fMAC := ethernet.NewMAC(50)
	fw := interpose.NewFirewall(100, []byte("DENY"))
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, interpose.NewChain(fw))
	inner := ethernet.Frame{Dst: r.extMAC, Src: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("DENY this")}
	raw := inner.EncodeTo(make([]byte, inner.Len()))
	r.driver.SendNet(uint8(virtio.DeviceNet), 2, raw)
	r.eng.Run()
	if got := len(poll(r.extVF, 0)); got != 0 {
		t.Errorf("dropped frame escaped: %d frames", got)
	}
	if r.hyp.Counters.Get("interpose_drops") != 1 {
		t.Errorf("interpose_drops = %d", r.hyp.Counters.Get("interpose_drops"))
	}
}

// A frame shorter than an Ethernet header that reaches the uplink ingress
// is dropped and counted as a bad message. NICs drop such frames before any
// VF sees them, so the test hands it to the ingress directly.
func TestIngressShortFrameIsBadMsg(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, ethernet.NewMAC(50), nil)
	delivered := 0
	r.driver.NetRx = func(_ uint16, frame *bufpool.Frame) {
		delivered++
		frame.Release()
	}
	r.hyp.ingressPlain([]byte("too short"))
	r.eng.Run()
	if delivered != 0 {
		t.Errorf("short frame delivered %d times", delivered)
	}
	if got := r.hyp.Counters.Get("bad_msgs"); got != 1 {
		t.Errorf("bad_msgs = %d, want 1", got)
	}
}

func TestPerDeviceOrderPreservedAcrossWorkers(t *testing.T) {
	r := newRig(t, 4, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 10000)
	dev := blockdev.NewDevice(r.eng, store, 100, 8)
	r.hyp.RegisterBlkDeviceMQ(r.clientMAC, 1, blockdev.NewScheduler(dev, r.p.SectorSize), nil, 1)

	// 32 sequential writes to the same sector: final content must be the
	// last one despite 4 workers.
	const writes = 32
	completed := 0
	for i := 0; i < writes; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 512)
		req := virtio.BlkReq{Type: virtio.BlkOut, Sector: 7, Data: data}.Append(nil)
		r.driver.SendBlkQ(uint8(virtio.DeviceBlk), 1, 0, req, func(resp []byte, err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			completed++
		})
	}
	r.eng.Run()
	if completed != writes {
		t.Fatalf("completed %d/%d", completed, writes)
	}
	got, _ := store.Read(7, 1)
	if got[0] != writes {
		t.Errorf("final sector value = %d, want %d (order violated)", got[0], writes)
	}
}

func TestPollingModeHasNoIOhostInterrupts(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	fMAC := ethernet.NewMAC(50)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)
	inner := ethernet.Frame{Dst: r.extMAC, Src: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("x")}
	raw := inner.EncodeTo(make([]byte, inner.Len()))
	for i := 0; i < 10; i++ {
		r.driver.SendNet(uint8(virtio.DeviceNet), 2, raw)
	}
	r.eng.Run()
	if irqs := r.hyp.Counters.Get("iohost_irqs"); irqs != 0 {
		t.Errorf("polling mode took %d IOhost interrupts", irqs)
	}
}

func TestInterruptModeCountsIOhostInterrupts(t *testing.T) {
	r := newRig(t, 1, ModeInterrupt)
	fMAC := ethernet.NewMAC(50)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)
	inner := ethernet.Frame{Dst: r.extMAC, Src: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("x")}
	raw := inner.EncodeTo(make([]byte, inner.Len()))
	r.driver.SendNet(uint8(virtio.DeviceNet), 2, raw)
	r.eng.Run()
	// At least rx + tx interrupts.
	if irqs := r.hyp.Counters.Get("iohost_irqs"); irqs < 2 {
		t.Errorf("iohost_irqs = %d, want >= 2", irqs)
	}
	if got := len(poll(r.extVF, 0)); got != 1 {
		t.Errorf("frame not forwarded in interrupt mode: %d", got)
	}
}

func TestUnknownBlockDeviceGetsUnsupp(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	req := virtio.BlkReq{Type: virtio.BlkOut, Sector: 0, Data: make([]byte, 512)}.Append(nil)
	var status byte = 0xFF
	r.driver.SendBlkQ(uint8(virtio.DeviceBlk), 9, 0, req, func(resp []byte, err error) {
		if err == nil && len(resp) == 1 {
			status = resp[0]
		}
	})
	r.eng.Run()
	if status != virtio.BlkUnsupp {
		t.Errorf("status = %d, want BlkUnsupp", status)
	}
}

func TestWorkersShareLoad(t *testing.T) {
	r := newRig(t, 4, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 100000)
	dev := blockdev.NewDevice(r.eng, store, 100, 16)
	// Many independent devices so steering can spread.
	for id := uint16(1); id <= 8; id++ {
		r.hyp.RegisterBlkDeviceMQ(r.clientMAC, id, dev, nil, 1)
	}
	done := 0
	for i := 0; i < 200; i++ {
		req := virtio.BlkReq{Type: virtio.BlkOut, Sector: uint64(i * 8), Data: make([]byte, 512)}.Append(nil)
		r.driver.SendBlkQ(uint8(virtio.DeviceBlk), uint16(1+i%8), 0, req, func(resp []byte, err error) {
			if err != nil {
				t.Errorf("req: %v", err)
			}
			done++
		})
	}
	r.eng.Run()
	if done != 200 {
		t.Fatalf("done = %d", done)
	}
	busyWorkers := 0
	for _, w := range r.hyp.Workers() {
		if w.Processed > 0 {
			busyWorkers++
		}
	}
	if busyWorkers < 2 {
		t.Errorf("only %d workers processed anything", busyWorkers)
	}
}

func TestNewRequiresSidecores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without sidecores did not panic")
		}
	}()
	p := params.Default()
	New(sim.NewEngine(), Config{Params: &p})
}

func TestCopiedEdgeBytes(t *testing.T) {
	// The payload follows the 44-byte transport and virtio-blk headers, so
	// against 512-byte sectors a write copies a 468-byte head and a
	// (44+n)%512-byte tail: 512 bytes for every whole-sector write, all of
	// a 600-byte one.
	r := newRig(t, 1, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 1024)
	r.hyp.RegisterBlkDeviceMQ(r.clientMAC, 1, blockdev.NewDevice(r.eng, store, r.p.RamdiskLatency, 1), nil, 1)
	writeCopy := r.hyp.blkDev(r.clientMAC, 1).srv.Cost.WriteCopy
	for k := 0; k <= 128; k++ {
		want := 512
		if k == 0 {
			want = 0
		}
		if got := writeCopy(k * 512); got != want {
			t.Errorf("WriteCopy(%d) = %d, want %d", k*512, got, want)
		}
	}
	if got := writeCopy(600); got != 600 {
		t.Errorf("WriteCopy(600) = %d, want 600", got)
	}
}

func TestAnnounceAddressesFloodsFMACs(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, ethernet.NewMAC(50), nil)
	r.hyp.RegisterNetDevice(r.clientMAC, 4, ethernet.NewMAC(51), nil)
	r.hyp.AnnounceAddresses()
	r.eng.Run()
	// The external node receives one broadcast per registered F address.
	frames := poll(r.extVF, 0)
	if len(frames) != 2 {
		t.Fatalf("external node saw %d announcements, want 2", len(frames))
	}
	srcs := map[ethernet.MAC]bool{}
	for _, raw := range frames {
		f, err := ethernet.Decode(raw)
		if err != nil || f.Dst != ethernet.Broadcast {
			t.Fatalf("announcement malformed: %v %v", f, err)
		}
		srcs[f.Src] = true
	}
	if !srcs[ethernet.NewMAC(50)] || !srcs[ethernet.NewMAC(51)] {
		t.Errorf("announcement sources wrong: %v", srcs)
	}
	if r.hyp.Counters.Get("announcements") != 2 {
		t.Errorf("announcements counter = %d", r.hyp.Counters.Get("announcements"))
	}
}

func TestFailedIOhostServesNothing(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	fMAC := ethernet.NewMAC(50)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)
	r.hyp.Fail()
	inner := ethernet.Frame{Dst: r.extMAC, Src: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("dead")}
	raw := inner.EncodeTo(make([]byte, inner.Len()))
	r.driver.SendNet(uint8(virtio.DeviceNet), 2, raw)
	r.extVF.SendFrame(ethernet.Frame{Dst: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("in")})
	r.eng.Run()
	if got := len(poll(r.extVF, 0)); got != 0 {
		t.Errorf("crashed IOhost forwarded %d frames", got)
	}
	if !r.hyp.Failed() {
		t.Error("Failed() = false")
	}
	// Announcements from a dead host must not go out either.
	r.hyp.AnnounceAddresses()
	r.eng.Run()
	if got := len(poll(r.extVF, 0)); got != 0 {
		t.Errorf("crashed IOhost announced %d frames", got)
	}
}

// TestStallWorkersDefersService: during an injected stall every sidecore is
// pinned, so a request sent mid-stall is not served until the stall window
// ends; service resumes afterwards with no traffic lost.
func TestStallWorkersDefersService(t *testing.T) {
	r := newRig(t, 2, ModePolling)
	fMAC := ethernet.NewMAC(50)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)
	inner := ethernet.Frame{Dst: r.extMAC, Src: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("after the stall")}
	raw := inner.EncodeTo(make([]byte, inner.Len()))

	const stall = 2 * sim.Millisecond
	r.eng.At(0, func() {
		r.hyp.StallWorkers(stall)
		if !r.hyp.Stalled() {
			t.Error("Stalled() false immediately after StallWorkers")
		}
	})
	r.eng.At(10, func() { r.driver.SendNet(uint8(virtio.DeviceNet), 2, raw) })

	// Just before the stall ends nothing has been forwarded.
	r.eng.At(stall-1, func() {
		if got := len(poll(r.extVF, 0)); got != 0 {
			t.Errorf("stalled IOhost forwarded %d frames", got)
		}
	})
	r.eng.Run()

	if r.hyp.Stalled() {
		t.Error("Stalled() true after the window ended")
	}
	if got := len(poll(r.extVF, 0)); got != 1 {
		t.Errorf("external node got %d frames after stall, want 1", got)
	}
	if r.hyp.Counters.Get("stalls") != 1 {
		t.Errorf("stalls counter = %d, want 1", r.hyp.Counters.Get("stalls"))
	}
}

// TestStallWindowsExtendNotStack: overlapping stalls merge into one window
// ending at the farthest deadline.
func TestStallWindowsExtendNotStack(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	r.eng.At(0, func() { r.hyp.StallWorkers(100) })
	r.eng.At(50, func() { r.hyp.StallWorkers(100) })
	r.eng.At(120, func() {
		if !r.hyp.Stalled() {
			t.Error("second stall did not extend the window")
		}
	})
	r.eng.At(151, func() {
		if r.hyp.Stalled() {
			t.Error("stall window outlived the farthest deadline")
		}
	})
	r.eng.Run()
}

// TestMultiQueueStableWorkerAffinity: a 4-queue device on 3 sidecores pins
// queues to workers round-robin at registration, the pinning is readable
// through the accessors, and the per-queue in-flight tables balance to zero
// once traffic drains.
func TestMultiQueueStableWorkerAffinity(t *testing.T) {
	r := newRig(t, 3, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 10000)
	dev := blockdev.NewDevice(r.eng, store, 100, 8)
	r.hyp.RegisterBlkDeviceMQ(r.clientMAC, 1, blockdev.NewScheduler(dev, r.p.SectorSize), nil, 4)

	if got := r.hyp.blkDev(r.clientMAC, 1).queues; got != 4 {
		t.Fatalf("%d queues, want 4", got)
	}
	for q := 0; q < 4; q++ {
		if got := r.hyp.BlkQueueWorker(r.clientMAC, 1, q); got != q%3 {
			t.Errorf("queue %d pinned to worker %d, want %d (registration-time round robin)", q, got, q%3)
		}
	}

	done := 0
	for i := 0; i < 64; i++ {
		req := virtio.BlkReq{Type: virtio.BlkOut, Sector: uint64(i * 8), Data: make([]byte, 512)}.Append(nil)
		r.driver.SendBlkQ(uint8(virtio.DeviceBlk), 1, uint8(i%4), req, func(resp []byte, err error) {
			if err != nil {
				t.Errorf("req: %v", err)
			}
			done++
		})
	}
	r.eng.Run()
	if done != 64 {
		t.Fatalf("done = %d", done)
	}
	if left := r.hyp.BlkInFlight(); left != 0 {
		t.Errorf("BlkInFlight = %d after drain, want 0", left)
	}
	for q := 0; q < 4; q++ {
		if d := r.hyp.BlkQueueDepth(r.clientMAC, 1, q); d != 0 {
			t.Errorf("queue %d depth = %d after drain, want 0", q, d)
		}
	}
	// Queues 0..3 map onto workers {0,1,2,0}; all three must have executed.
	for i, w := range r.hyp.Workers() {
		if w.Processed == 0 {
			t.Errorf("worker %d processed nothing despite pinned queues", i)
		}
	}
}

// TestMultiQueuePerQueueFIFO: same-queue requests never migrate off their
// pinned worker, so per-queue submission order survives even though the
// device has parallel banks and other queues run concurrently. Each queue
// hammers its own sector; the final value must be that queue's last write.
func TestMultiQueuePerQueueFIFO(t *testing.T) {
	r := newRig(t, 3, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 10000)
	dev := blockdev.NewDevice(r.eng, store, 100, 8)
	r.hyp.RegisterBlkDeviceMQ(r.clientMAC, 1, blockdev.NewScheduler(dev, r.p.SectorSize), nil, 4)

	const perQueue = 24
	completed := 0
	for i := 0; i < perQueue; i++ {
		for q := 0; q < 4; q++ {
			data := bytes.Repeat([]byte{byte(i + 1)}, 512)
			req := virtio.BlkReq{Type: virtio.BlkOut, Sector: uint64(q), Data: data}.Append(nil)
			r.driver.SendBlkQ(uint8(virtio.DeviceBlk), 1, uint8(q), req, func(resp []byte, err error) {
				if err != nil {
					t.Errorf("write: %v", err)
				}
				completed++
			})
		}
	}
	r.eng.Run()
	if completed != 4*perQueue {
		t.Fatalf("completed %d/%d", completed, 4*perQueue)
	}
	for q := 0; q < 4; q++ {
		got, _ := store.Read(uint64(q), 1)
		if got[0] != perQueue {
			t.Errorf("queue %d final sector value = %d, want %d (per-queue order violated)",
				q, got[0], perQueue)
		}
	}
}
