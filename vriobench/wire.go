package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"sync"
	"time"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/netwire"
	"vrio/internal/sim"
	"vrio/internal/transport"
)

// wire-blk input shape: G closed-loop guests × 2 queues × QD 4, 4 KiB
// blocks, one netwire.Loop and one UDP socket on the driving side, no
// injected loss.
const (
	wireGuests = 2
	wireQueues = 2
	wireDepth  = 4

	// devTypeBlk and serverNode follow vrio-loadgen: it serves block
	// device type 2 and answers as ethernet.NewMAC(0xF0F0).
	devTypeBlk = 2
	serverNode = 0xF0F0
	// wireMaxChunk keeps one transport chunk inside one UDP datagram, as
	// vrio-loadgen configures its UDP carrier.
	wireMaxChunk = 32 << 10
)

var serverMAC = ethernet.NewMAC(serverNode)

func wireTransportConfig() transport.Config {
	return transport.Config{InitialTimeout: 20 * sim.Millisecond, MaxRetransmits: 8, MaxChunk: wireMaxChunk}
}

// server is one vrio-loadgen -serve process on a loopback UDP port.
type server struct {
	cmd  *exec.Cmd
	addr string
	out  bytes.Buffer
	done chan error
}

// freeUDPPort asks the kernel for an unused loopback UDP port.
func freeUDPPort() (int, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.LocalAddr().(*net.UDPAddr).Port, nil
}

func startServer(path string) (*server, error) {
	port, err := freeUDPPort()
	if err != nil {
		return nil, fmt.Errorf("pick server port: %w", err)
	}
	s := &server{addr: fmt.Sprintf("127.0.0.1:%d", port), done: make(chan error, 1)}
	s.cmd = exec.Command(path, "-serve", "-carrier", "udp", "-addr", s.addr)
	s.cmd.Stdout, s.cmd.Stderr = &s.out, &s.out
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	return s, nil
}

// stop asks the server to drain and exit (SIGINT), kills it if it does
// not, and returns once the process has ended.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("vrio-loadgen -serve: %w\n%s", err, s.out.String())
		}
		return nil
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("vrio-loadgen -serve ignored SIGINT")
	}
}

// wireCell is the driving side of one wire-blk round. Everything but the
// channels belongs to the loop goroutine.
type wireCell struct {
	loop *netwire.Loop
	pool *bufpool.Pool
	udp  *netwire.UDPCarrier
	drv  *transport.Driver

	guests      []*wireGuest
	ready, done chan struct{}
	readySent   bool

	warmLeft, quota, measured int
	measuring, stopping       bool
	active                    int
	t0, t1                    time.Time
	alloc                     allocMeter
	allocMB                   float64

	lat                    []int64
	counts                 []uint8
	mismatches, errs, bad  uint64
	retrans0, miss0, drop0 uint64
	retransmits            uint64
	poolMisses, drops      uint64

	corrupt func([]byte)

	// Traced rounds time the transport and carrier calls; each total is
	// self time (callees the benchmark also times are subtracted).
	timed                           bool
	sendNs, submitNs, deliverNs     int64
	sends, submits, delivers        int64
	sendInSubmit, callbackInDeliver int64
	helloFn                         func()
}

// timedPort is the carrier with its Send timed.
type timedPort struct {
	*netwire.UDPCarrier
	c *wireCell
}

func (p timedPort) Send(dst ethernet.MAC, payload []byte) {
	t := time.Now()
	p.UDPCarrier.Send(dst, payload)
	d := time.Since(t).Nanoseconds()
	p.c.sendNs += d
	p.c.sendInSubmit += d
	p.c.sends++
}

type wireGuest struct {
	c     *wireCell
	id    uint16
	queue uint8
	rng   *sim.RNG
	req   []byte
	want  [sha256.Size]byte
	reqID int
	start sim.Time
	cb    transport.BlkCallback
}

func newWireCell(cfg *config, serverAddr string, timed bool) (*wireCell, error) {
	c := &wireCell{
		loop: netwire.NewLoop(), pool: bufpool.New(),
		ready: make(chan struct{}), done: make(chan struct{}),
		warmLeft: cfg.sc.wireWarm, quota: cfg.sc.wireReqs,
		corrupt: cfg.corrupt, timed: timed,
	}
	udp, err := netwire.ListenUDP(c.loop, c.pool, ethernet.NewMAC(0x1000), "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("driver socket: %w", err)
	}
	ua, err := net.ResolveUDPAddr("udp", serverAddr)
	if err != nil {
		udp.Close()
		return nil, err
	}
	// The socket is IPv4-only, so the peer address must not be v4-mapped.
	ap := ua.AddrPort()
	udp.AddPeer(serverMAC, netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()))
	c.udp = udp
	var port transport.Port = udp
	if timed {
		port = timedPort{udp, c}
	}
	c.drv = transport.NewDriver(c.loop, port, serverMAC, wireTransportConfig())
	udp.OnMessage = c.onMessage
	udp.OnReady = func(ethernet.MAC) { c.onReady() }
	c.helloFn = c.hello
	for g := 0; g < wireGuests; g++ {
		for q := 0; q < wireQueues; q++ {
			for d := 0; d < wireDepth; d++ {
				lane := uint64(g)<<16 | uint64(q*wireDepth+d)
				c.addGuest(uint16(g+1), uint8(q), sim.NewRNG(cfg.seed^(lane+1)*0x9e3779b97f4a7c15))
			}
		}
	}
	return c, nil
}

func (c *wireCell) addGuest(id uint16, queue uint8, rng *sim.RNG) {
	g := &wireGuest{c: c, id: id, queue: queue, rng: rng, req: make([]byte, blkSize)}
	g.cb = func(resp []byte, err error) {
		var t time.Time
		if c.timed {
			t = time.Now()
		}
		c.counts[g.reqID]++
		switch {
		case err != nil:
			c.errs++
		default:
			if c.corrupt != nil {
				resp = append([]byte(nil), resp...)
				c.corrupt(resp)
			}
			if len(resp) != sha256.Size+len(g.req) || !bytes.Equal(resp[:sha256.Size], g.want[:]) ||
				!bytes.Equal(resp[sha256.Size:], g.req) {
				c.mismatches++
			} else if c.measuring {
				c.lat = append(c.lat, int64(c.loop.Now()-g.start))
			}
		}
		c.completed()
		g.next()
		if c.timed {
			c.callbackInDeliver += time.Since(t).Nanoseconds()
		}
	}
	c.active++
	c.guests = append(c.guests, g)
}

func (c *wireCell) onMessage(_ ethernet.MAC, msg []byte) {
	if !c.timed {
		if c.drv.Deliver(msg) != nil {
			c.bad++
		}
		return
	}
	c.callbackInDeliver = 0
	t := time.Now()
	err := c.drv.Deliver(msg)
	c.deliverNs += time.Since(t).Nanoseconds() - c.callbackInDeliver
	c.delivers++
	if err != nil {
		c.bad++
	}
}

// hello announces the driver until the server's ack arrives; the server
// process may still be starting, so it re-arms every millisecond.
func (c *wireCell) hello() {
	if c.readySent {
		return
	}
	c.udp.SendHello(serverMAC)
	c.loop.AfterFunc(sim.Millisecond, c.helloFn)
}

func (c *wireCell) onReady() {
	if c.readySent {
		return
	}
	c.readySent = true
	close(c.ready)
	for _, g := range c.guests {
		g.next()
	}
}

// completed counts one finished request and moves the phases on: warm-up,
// then the measured quota, then the drain.
func (c *wireCell) completed() {
	switch {
	case c.warmLeft > 0:
		c.warmLeft--
		if c.warmLeft == 0 {
			c.retrans0 = c.drv.Counters.Get("retransmits")
			c.miss0 = c.pool.Stats.Misses
			c.drop0 = c.udp.Drops.Total()
			c.measuring = true
			c.alloc.start()
			c.t0 = time.Now()
		}
	case c.measuring:
		c.measured++
		if c.measured == c.quota {
			c.t1 = time.Now()
			c.allocMB = c.alloc.stopMB()
			c.measuring, c.stopping = false, true
			c.retransmits = c.drv.Counters.Get("retransmits") - c.retrans0
			c.poolMisses = c.pool.Stats.Misses - c.miss0
			c.drops = c.udp.Drops.Total() - c.drop0
		}
	}
}

func (g *wireGuest) next() {
	c := g.c
	if c.stopping {
		c.active--
		if c.active == 0 {
			close(c.done)
			c.loop.Close()
		}
		return
	}
	fillPayload(g.rng, g.req)
	g.want = sha256.Sum256(g.req)
	g.reqID = len(c.counts)
	c.counts = append(c.counts, 0)
	g.start = c.loop.Now()
	if !c.timed {
		c.drv.SendBlkQ(devTypeBlk, g.id, g.queue, g.req, g.cb)
		return
	}
	c.sendInSubmit = 0
	t := time.Now()
	c.drv.SendBlkQ(devTypeBlk, g.id, g.queue, g.req, g.cb)
	c.submitNs += time.Since(t).Nanoseconds() - c.sendInSubmit
	c.submits++
}

// fillPayload fills b with pseudo-random bytes from rng.
func fillPayload(rng *sim.RNG, b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
}

// wireResult is one wire-blk round.
type wireResult struct {
	setupS, wallS, allocMB float64
	lat                    latencySummary
	reqs                   int
	cell                   *wireCell
}

// runWireRound starts a server, drives it through warm-up and the measured
// quota, drains, and stops it.
func runWireRound(cfg *config, timed bool) (wireResult, error) {
	t0 := time.Now()
	srv, err := startServer(cfg.loadgen)
	if err != nil {
		return wireResult{}, err
	}
	c, err := newWireCell(cfg, srv.addr, timed)
	if err != nil {
		_ = srv.stop()
		return wireResult{}, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.loop.Run()
	}()
	c.loop.Post(c.hello)
	fail := func(what string) (wireResult, error) {
		c.loop.Close()
		wg.Wait()
		c.udp.Close()
		stopErr := srv.stop()
		return wireResult{}, fmt.Errorf("wire-blk: %s (server: %v)\n%s", what, stopErr, srv.out.String())
	}
	select {
	case <-c.ready:
	case <-time.After(10 * time.Second):
		return fail("no hello-ack from vrio-loadgen -serve within 10s")
	}
	setup := time.Since(t0).Seconds()
	select {
	case <-c.done:
	case <-time.After(60 * time.Second):
		return fail("requests did not drain within 60s")
	}
	wg.Wait()
	c.udp.Close()
	if err := srv.stop(); err != nil {
		return wireResult{}, err
	}
	return wireResult{
		setupS: setup, wallS: c.t1.Sub(c.t0).Seconds(), allocMB: c.allocMB,
		lat: summarize(c.lat), reqs: c.quota, cell: c,
	}, nil
}
