package netwire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"runtime"
	"testing"
	"time"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/link"
	"vrio/internal/netwire"
	"vrio/internal/sim"
	"vrio/internal/transport"
)

// reseal recomputes a frame's checksum the way SealFrame defines it, so a
// test can build deliberately malformed-but-sealed frames.
func reseal(b []byte) {
	sum := crc32.ChecksumIEEE(b[:16])
	sum = crc32.Update(sum, crc32.IEEETable, b[netwire.PreambleSize:])
	binary.LittleEndian.PutUint32(b[16:20], sum)
}

func TestFrameCodec(t *testing.T) {
	src, dst := ethernet.NewMAC(1), ethernet.NewMAC(2)
	payload := []byte("the quick brown fox")
	buf := make([]byte, netwire.PreambleSize+len(payload))
	copy(buf[netwire.PreambleSize:], payload)
	netwire.SealFrame(buf, netwire.KindData, src, dst)

	p, body, err := netwire.DecodeFrame(buf)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if p.Kind != netwire.KindData || p.Src != src || p.Dst != dst {
		t.Fatalf("preamble = %+v", p)
	}
	if !bytes.Equal(body, payload) {
		t.Fatalf("payload = %q", body)
	}

	// Any flipped bit — preamble or payload — must fail the checksum.
	for _, i := range []int{4, 12, netwire.PreambleSize, len(buf) - 1} {
		cp := append([]byte(nil), buf...)
		cp[i] ^= 0x40
		if _, _, err := netwire.DecodeFrame(cp); !errors.Is(err, netwire.ErrChecksum) {
			t.Errorf("bit flip at %d: err = %v, want ErrChecksum", i, err)
		}
	}

	if _, _, err := netwire.DecodeFrame(buf[:10]); !errors.Is(err, netwire.ErrRunt) {
		t.Errorf("short frame: err = %v, want ErrRunt", err)
	}

	bad := append([]byte(nil), buf...)
	bad[0] = 0
	if _, _, err := netwire.DecodeFrame(bad); !errors.Is(err, netwire.ErrMagic) {
		t.Errorf("bad magic: err = %v, want ErrMagic", err)
	}

	bad = append(bad[:0:0], buf...)
	bad[2] = 99 // version
	reseal(bad)
	if _, _, err := netwire.DecodeFrame(bad); !errors.Is(err, netwire.ErrVersion) {
		t.Errorf("bad version: err = %v, want ErrVersion", err)
	}

	bad = append(bad[:0:0], buf...)
	bad[3] = 200 // kind
	reseal(bad)
	if _, _, err := netwire.DecodeFrame(bad); !errors.Is(err, netwire.ErrKind) {
		t.Errorf("bad kind: err = %v, want ErrKind", err)
	}
}

func TestLoopClock(t *testing.T) {
	l := netwire.NewLoop()
	go l.Run()
	defer l.Close()

	// AfterFunc fires on the loop goroutine at or after its deadline.
	early := make(chan bool, 1)
	l.Post(func() {
		deadline := l.Now() + 20*sim.Millisecond
		l.AfterFunc(20*sim.Millisecond, func() { early <- l.Now() < deadline })
	})
	select {
	case e := <-early:
		if e {
			t.Fatal("timer fired before its deadline")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}

	// CancelTimer stops a pending timer; a fresh timer on the recycled
	// shell still fires its own fn.
	canceled := make(chan struct{}, 1)
	okc := make(chan struct{})
	l.Post(func() {
		id := l.AfterFunc(10*sim.Millisecond, func() { canceled <- struct{}{} })
		l.CancelTimer(id)
		l.AfterFunc(30*sim.Millisecond, func() { close(okc) })
	})
	select {
	case <-canceled:
		t.Fatal("canceled timer fired")
	case <-okc:
	case <-time.After(5 * time.Second):
		t.Fatal("recycled timer never fired")
	}
}

// TestPostAfterClose: a closed loop refuses every Post, so no work is
// queued that will never run. A carrier's reader depends on that refusal
// to exit: were a post into the closed loop accepted, each datagram would
// park one of the reader's scratch buffers in the dead queue, and with
// none left the reader would block for good.
func TestPostAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()
	l := netwire.NewLoop()
	c, err := netwire.ListenUDP(l, bufpool.New(), ethernet.NewMAC(1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l.Close()
	for i := 0; i < 100; i++ {
		if l.Post(func() { t.Error("posted work ran on a closed loop") }) {
			t.Fatalf("Post %d after Close reported true", i)
		}
	}

	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(c.LocalAddrPort()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 16; i++ {
		if _, err := conn.Write([]byte("after close")); err != nil {
			t.Fatal(err)
		}
	}
	// The reader must leave on the first datagram, with its socket still
	// open, so it is the refused post that ends it.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("reader still running: %d goroutines, %d before ListenUDP", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// cell is one side of a loopback pair: a loop goroutine plus its pool.
type cell struct {
	loop *netwire.Loop
	pool *bufpool.Pool
}

func newCell() *cell {
	return &cell{loop: netwire.NewLoop(), pool: bufpool.New()}
}

// call runs fn on the cell's loop and waits for it.
func (c *cell) call(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	if !c.loop.Post(func() { fn(); close(done) }) {
		t.Fatal("loop closed")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("loop call timed out")
	}
}

// udpConfig keeps every chunk within one datagram.
func udpConfig() transport.Config {
	return transport.Config{MaxChunk: 32 << 10, InitialTimeout: 20 * sim.Millisecond, MaxRetransmits: 10}
}

// serveEcho stands up an endpoint that echoes block requests, the same
// contract as transport.Rig.
func serveEcho(clk sim.Clock, port transport.Port, cfg transport.Config) *transport.Endpoint {
	ep := transport.NewEndpoint(clk, port, cfg)
	ep.BlkReq = func(src ethernet.MAC, h transport.Header, req *bufpool.Frame) {
		ep.RespondBlk(src, h, req.B)
		req.Release()
	}
	return ep
}

// handshake re-sends hellos from the client until the server's ack lands
// (hellos are plain frames: on a lossy carrier either direction may drop).
func handshake(t *testing.T, c *cell, send func(), ready *bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := false
		c.call(t, func() {
			send()
			ok = *ready
		})
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("hello handshake never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func blkRoundTrip(t *testing.T, c *cell, drv *transport.Driver, size int) {
	t.Helper()
	req := make([]byte, size)
	for i := range req {
		req[i] = byte(i * 31)
	}
	done := make(chan error, 1)
	c.call(t, func() {
		drv.SendBlkQ(1, 7, 0, req, func(resp []byte, err error) {
			if err == nil && !bytes.Equal(resp, req) {
				err = errors.New("response differs from request")
			}
			done <- err
		})
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("block round trip: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("block request never completed")
	}
}

func TestUDPLoopbackBlk(t *testing.T) {
	srv, cli := newCell(), newCell()
	serverMAC, clientMAC := ethernet.NewMAC(100), ethernet.NewMAC(1)
	cfg := udpConfig()

	sc, err := netwire.ListenUDP(srv.loop, srv.pool, serverMAC, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ep := serveEcho(srv.loop, sc, cfg)
	sc.OnMessage = func(src ethernet.MAC, msg []byte) { _ = ep.Deliver(src, msg) }
	go srv.loop.Run()
	defer srv.loop.Close()

	cc, err := netwire.ListenUDP(cli.loop, cli.pool, clientMAC, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.AddPeer(serverMAC, sc.LocalAddrPort())
	drv := transport.NewDriver(cli.loop, cc, serverMAC, cfg)
	cc.OnMessage = func(_ ethernet.MAC, msg []byte) { _ = drv.Deliver(msg) }
	ready := false
	cc.OnReady = func(ethernet.MAC) { ready = true }
	go cli.loop.Run()
	defer cli.loop.Close()

	handshake(t, cli, func() { cc.SendHello(serverMAC) }, &ready)
	blkRoundTrip(t, cli, drv, 1024)    // single chunk
	blkRoundTrip(t, cli, drv, 100<<10) // chunked across 4 datagrams
	cli.call(t, func() {
		if got := drv.Counters.Get("blk_completed"); got != 2 {
			t.Errorf("blk_completed = %d, want 2", got)
		}
	})
}

// TestUDPLossyRetransmit is the wall-clock retransmission proof: with
// injected datagram loss and corruption on both directions of a loopback
// socket pair, every block request still completes — recovered by genuine
// wall-clock timers — and the drop accounting shows the carrier really
// dropped frames.
func TestUDPLossyRetransmit(t *testing.T) {
	srv, cli := newCell(), newCell()
	serverMAC, clientMAC := ethernet.NewMAC(100), ethernet.NewMAC(1)
	cfg := udpConfig()

	sc, err := netwire.ListenUDP(srv.loop, srv.pool, serverMAC, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	sc.SetFault(netwire.LossFault(0.25, 0.05, 7))
	ep := serveEcho(srv.loop, sc, cfg)
	sc.OnMessage = func(src ethernet.MAC, msg []byte) { _ = ep.Deliver(src, msg) }
	go srv.loop.Run()
	defer srv.loop.Close()

	cc, err := netwire.ListenUDP(cli.loop, cli.pool, clientMAC, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.SetFault(netwire.LossFault(0.25, 0.05, 11))
	cc.AddPeer(serverMAC, sc.LocalAddrPort())
	drv := transport.NewDriver(cli.loop, cc, serverMAC, cfg)
	cc.OnMessage = func(_ ethernet.MAC, msg []byte) { _ = drv.Deliver(msg) }
	ready := false
	cc.OnReady = func(ethernet.MAC) { ready = true }
	go cli.loop.Run()
	defer cli.loop.Close()

	handshake(t, cli, func() { cc.SendHello(serverMAC) }, &ready)
	for i := 0; i < 20; i++ {
		blkRoundTrip(t, cli, drv, 8<<10)
	}

	cli.call(t, func() {
		if got := drv.Counters.Get("blk_completed"); got != 20 {
			t.Errorf("blk_completed = %d, want 20", got)
		}
		if drv.Counters.Get("retransmits") == 0 {
			t.Error("no retransmits under 25% injected loss — wall-clock timers never fired")
		}
		if cc.Drops.Get(link.DropInjected) == 0 {
			t.Error("client carrier dropped nothing despite the injector")
		}
	})
}

// TestSealDecodeNoAlloc guards the per-frame codec cost on the real-wire
// datapath.
func TestSealDecodeNoAlloc(t *testing.T) {
	src, dst := ethernet.NewMAC(1), ethernet.NewMAC(2)
	buf := make([]byte, netwire.PreambleSize+4096)
	allocs := testing.AllocsPerRun(200, func() {
		netwire.SealFrame(buf, netwire.KindData, src, dst)
		if _, _, err := netwire.DecodeFrame(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("seal+decode allocates %.1f per frame, want 0", allocs)
	}
}
