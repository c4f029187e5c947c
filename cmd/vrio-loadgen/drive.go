package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/link"
	"vrio/internal/netwire"
	"vrio/internal/sim"
	"vrio/internal/stats"
	"vrio/internal/trace"
	"vrio/internal/transport"
)

// worker is one driving loop: its own goroutine, socket, buffer pool, and
// transport.Driver, plus its own statistics shard. Everything below the
// readyCh send happens on the worker's loop goroutine, which is what
// makes the non-concurrency-safe Histogram/Counters/bufpool machinery
// legal here; shards are merged in worker order after every loop has
// exited, so the merged totals are deterministic for a given set of
// per-worker results.
type worker struct {
	id   int
	cfg  *config
	loop *netwire.Loop
	pool *bufpool.Pool
	drv  *transport.Driver

	carrier *netwire.UDPCarrier

	ready   bool
	readyCh chan<- int

	guests   []*guest
	active   int
	stopping bool

	// quota is the number of measured completions after which this worker
	// stops on its own (0 = run until told). Warmup completions, before
	// resetStats sets measuring, do not count toward it.
	quota     uint64
	measured  uint64
	measuring bool

	blkLat stats.Histogram
	netLat stats.Histogram
	ctr    stats.Counters

	measureStart sim.Time
	measureEnd   sim.Time

	netPend map[uint64]*netOp
	netSeq  uint64
	opFree  []*netOp

	reg      *trace.Registry
	ts       *trace.Timeseries
	sampleFn func()
	helloFn  func()
}

// guest is one closed-loop requester: exactly one request in flight,
// submitting the next from its completion callback. Request buffers and
// callbacks are allocated once here, so the steady-state submit path
// allocates nothing. With -blk-queues/-blk-depth above 1, each configured
// guest expands into queues×depth requesters sharing one device id, each
// stamping its queue into the §4.2 header — the NVMe queue-pair shape.
type guest struct {
	w       *worker
	id      uint16
	queue   uint8
	rng     *sim.RNG
	blkReq  []byte
	netBuf  []byte
	want    [sha256.Size]byte
	started sim.Time
	blkDone transport.BlkCallback
}

// netOp tracks one unreliable net send: either the digest-verified echo
// arrives or the loss timer expires. Recycled through worker.opFree.
type netOp struct {
	g       *guest
	seq     uint64
	want    [sha256.Size]byte
	started sim.Time
	timer   sim.TimerID
	expire  func()
}

func newWorker(cfg *config, id int, quota uint64, readyCh chan<- int) (*worker, error) {
	w := &worker{
		id:      id,
		cfg:     cfg,
		loop:    netwire.NewLoop(),
		pool:    bufpool.New(),
		readyCh: readyCh,
		quota:   quota,
		netPend: make(map[uint64]*netOp),
	}
	ua, err := net.ResolveUDPAddr("udp", cfg.addr)
	if err != nil {
		return nil, err
	}
	c, err := netwire.ListenUDP(w.loop, w.pool, ethernet.NewMAC(uint32(0x1000+id)), ":0")
	if err != nil {
		return nil, err
	}
	c.AddPeer(serverMAC(), ua.AddrPort())
	c.OnMessage = func(_ ethernet.MAC, msg []byte) { _ = w.drv.Deliver(msg) }
	c.OnReady = func(ethernet.MAC) { w.onReady() }
	if cfg.loss > 0 || cfg.corrupt > 0 {
		c.SetFault(netwire.LossFault(cfg.loss, cfg.corrupt, cfg.seed+uint64(1000+id)))
	}
	w.carrier = c
	w.drv = transport.NewDriver(w.loop, c, serverMAC(), transportConfig(cfg))
	w.drv.NetRx = func(id uint16, frame *bufpool.Frame) {
		w.netRx(id, frame.B)
		frame.Release()
	}
	w.helloFn = w.hello
	return w, nil
}

func (w *worker) addGuest(id uint16, queue uint8, lane int) {
	g := &guest{
		w:      w,
		id:     id,
		queue:  queue,
		rng:    sim.NewRNG(w.cfg.seed ^ ((uint64(id)<<16 | uint64(lane)) * 0x9e3779b97f4a7c15)),
		blkReq: make([]byte, w.cfg.blkSize),
		netBuf: make([]byte, w.cfg.netSize),
	}
	g.blkDone = func(resp []byte, err error) {
		switch {
		case err != nil:
			w.ctr.Inc("blk_errors", 1)
		case len(resp) != sha256.Size+len(g.blkReq) ||
			!bytes.Equal(resp[:sha256.Size], g.want[:]) ||
			!bytes.Equal(resp[sha256.Size:], g.blkReq):
			w.ctr.Inc("digest_mismatch", 1)
		default:
			w.ctr.Inc("blk_done", 1)
			w.ctr.Inc("bytes", uint64(len(g.blkReq)+len(resp)))
			w.blkLat.Record(int64(w.loop.Now() - g.started))
		}
		w.completed()
		g.next()
	}
	w.guests = append(w.guests, g)
}

// start begins the hello handshake; posted to the loop once Run is up.
func (w *worker) start() {
	w.hello()
	if w.ts != nil {
		w.loop.AfterFunc(sim.Time(w.cfg.sampleEvery), w.sampleFn)
	}
}

// hello announces this worker to the server and re-arms itself until the
// ack arrives (UDP may lose either direction, with or without -loss).
func (w *worker) hello() {
	if w.ready {
		return
	}
	w.carrier.SendHello(serverMAC())
	w.loop.AfterFunc(sim.Time(100*time.Millisecond), w.helloFn)
}

func (w *worker) onReady() {
	if w.ready {
		return
	}
	w.ready = true
	w.measureStart = w.loop.Now()
	for _, g := range w.guests {
		w.active++
		g.next()
	}
	w.readyCh <- w.id
}

// completed accounts one finished request (verified, failed, or lost) and
// trips the stop flag once the quota is reached.
func (w *worker) completed() {
	w.measured++
	if w.measuring && w.quota > 0 && w.measured >= w.quota {
		w.stopping = true
	}
}

// next submits the guest's next request, or retires the guest while the
// worker is draining. The last guest out closes the loop.
func (g *guest) next() {
	w := g.w
	if w.stopping {
		w.active--
		if w.active == 0 {
			w.finish()
		}
		return
	}
	g.started = w.loop.Now()
	if w.cfg.netFrac > 0 && g.rng.Float64() < w.cfg.netFrac {
		g.sendNet()
	} else {
		g.sendBlk()
	}
}

func (g *guest) sendBlk() {
	fillPayload(g.rng, g.blkReq)
	g.want = sha256.Sum256(g.blkReq)
	g.w.drv.SendBlkQ(devTypeBlk, g.id, g.queue, g.blkReq, g.blkDone)
}

func (g *guest) sendNet() {
	w := g.w
	w.netSeq++
	binary.LittleEndian.PutUint64(g.netBuf, w.netSeq)
	fillPayload(g.rng, g.netBuf[8:])
	op := w.newNetOp()
	op.g = g
	op.seq = w.netSeq
	op.want = sha256.Sum256(g.netBuf)
	op.started = g.started
	w.netPend[op.seq] = op
	op.timer = w.loop.AfterFunc(sim.Time(w.cfg.netTimeout), op.expire)
	w.drv.SendNet(devTypeNet, g.id, g.netBuf)
}

func (w *worker) newNetOp() *netOp {
	if n := len(w.opFree); n > 0 {
		op := w.opFree[n-1]
		w.opFree = w.opFree[:n-1]
		return op
	}
	op := &netOp{}
	op.expire = func() {
		if w.netPend[op.seq] != op {
			return // already completed; stale fire on a recycled op
		}
		delete(w.netPend, op.seq)
		w.ctr.Inc("net_lost", 1)
		g := op.g
		w.opFree = append(w.opFree, op)
		w.completed()
		g.next()
	}
	return op
}

// netRx matches an echoed net frame to its pending op and verifies the
// digest prefix against both the frame and what we sent.
func (w *worker) netRx(_ uint16, frame []byte) {
	if len(frame) < sha256.Size+8 {
		w.ctr.Inc("digest_mismatch", 1)
		return
	}
	seq := binary.LittleEndian.Uint64(frame[sha256.Size:])
	op := w.netPend[seq]
	if op == nil {
		w.ctr.Inc("net_late", 1) // echo beat by its own loss timer
		return
	}
	delete(w.netPend, seq)
	w.loop.CancelTimer(op.timer)
	sum := sha256.Sum256(frame[sha256.Size:])
	if sum != op.want || !bytes.Equal(frame[:sha256.Size], op.want[:]) {
		w.ctr.Inc("digest_mismatch", 1)
	} else {
		w.ctr.Inc("net_done", 1)
		w.ctr.Inc("bytes", uint64(2*len(frame)-sha256.Size))
		w.netLat.Record(int64(w.loop.Now() - op.started))
	}
	g := op.g
	w.opFree = append(w.opFree, op)
	w.completed()
	g.next()
}

// resetStats starts the measured phase: warmup traffic vanishes from every
// shard, including the driver's retransmit counters, the carrier's drop
// accounting, and the pool's miss counter (so steady-state misses prove
// the datapath recycles instead of allocating).
func (w *worker) resetStats() {
	w.blkLat.Reset()
	w.netLat.Reset()
	w.ctr.Reset()
	w.drv.Counters.Reset()
	w.carrier.Drops = link.DropStats{}
	w.carrier.Sent, w.carrier.Delivered, w.carrier.Frames, w.carrier.Corrupted = 0, 0, 0, 0
	w.pool.Stats = bufpool.Stats{}
	w.measured = 0
	w.measuring = true
	w.measureStart = w.loop.Now()
}

func (w *worker) beginStop() { w.stopping = true }

func (w *worker) finish() {
	w.measureEnd = w.loop.Now()
	if w.ts != nil {
		w.ts.Sample(w.loop.Now())
	}
	w.loop.Close()
}

func (w *worker) initMetrics() {
	w.reg = trace.NewRegistry()
	comp := fmt.Sprintf("loadgen/w%d", w.id)
	for _, name := range []string{"blk_done", "net_done", "net_lost", "blk_errors", "digest_mismatch", "bytes"} {
		name := name
		w.reg.Gauge(comp, name, func() float64 { return float64(w.ctr.Get(name)) })
	}
	w.reg.Gauge(comp, "retransmits", func() float64 { return float64(w.drv.Counters.Get("retransmits")) })
	w.reg.Gauge(comp, "in_flight", func() float64 { return float64(w.drv.InFlightBlk() + len(w.netPend)) })
	w.reg.Gauge(comp, "drops_injected", func() float64 { return float64(w.carrier.Drops.Get(link.DropInjected)) })
	w.reg.Gauge(comp, "drops_corrupt_fcs", func() float64 { return float64(w.carrier.Drops.Get(link.DropCorruptFCS)) })
	w.reg.Gauge(comp, "pool_misses", func() float64 { return float64(w.pool.Stats.Misses) })
	w.reg.PercentileGauge(comp, "blk_p99_us", &w.blkLat, 99)
	w.reg.ObserveHistogram(comp, "blk_lat_ns", &w.blkLat)
	w.reg.ObserveHistogram(comp, "net_lat_ns", &w.netLat)
	w.ts = w.reg.NewTimeseries()
	w.sampleFn = func() {
		w.ts.Sample(w.loop.Now())
		w.loop.AfterFunc(sim.Time(w.cfg.sampleEvery), w.sampleFn)
	}
}

// runDrive runs the traffic-generating process and reports. A close of
// stop drains the in-flight requests early.
func runDrive(cfg *config, stop <-chan struct{}) int {
	workers := make([]*worker, cfg.workers)
	readyCh := make(chan int, cfg.workers)
	for i := range workers {
		quota := cfg.requests / uint64(cfg.workers)
		if uint64(i) < cfg.requests%uint64(cfg.workers) {
			quota++
		}
		w, err := newWorker(cfg, i, quota, readyCh)
		if err != nil {
			for _, prev := range workers[:i] {
				prev.carrier.Close()
			}
			fmt.Fprintln(os.Stderr, "vrio-loadgen:", err)
			return 1
		}
		workers[i] = w
	}
	// Each guest expands into blkQueues×blkDepth closed-loop requesters, all
	// on the same worker so per-queue submission order is preserved.
	for g := 0; g < cfg.guests; g++ {
		w := workers[g%cfg.workers]
		for q := 0; q < cfg.blkQueues; q++ {
			for d := 0; d < cfg.blkDepth; d++ {
				w.addGuest(uint16(g+1), uint8(q), q*cfg.blkDepth+d)
			}
		}
	}
	if cfg.metricsPath != "" {
		for _, w := range workers {
			w.initMetrics()
		}
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.loop.Run()
			w.carrier.Close()
		}(w)
		w.loop.Post(w.start)
	}
	stopAll := func() {
		for _, w := range workers {
			w.loop.Post(w.beginStop)
		}
	}

	connectTimeout := time.After(15 * time.Second)
	for i := 0; i < cfg.workers; i++ {
		select {
		case <-readyCh:
		case <-stop:
			stopAll()
			wg.Wait()
			return 1
		case <-connectTimeout:
			fmt.Fprintf(os.Stderr, "vrio-loadgen: no hello-ack from %s after 15s (is -serve running there?)\n", cfg.addr)
			for _, w := range workers {
				w.loop.Close()
			}
			wg.Wait()
			return 1
		}
	}
	fmt.Printf("vrio-loadgen: %d workers x %d guests connected to %s over %s; warming up %v\n",
		cfg.workers, cfg.guests, cfg.addr, cfg.carrier, cfg.warmup)

	interrupted := sleepOrStop(cfg.warmup, stop)
	for _, w := range workers {
		w.loop.Post(w.resetStats)
	}
	t0 := time.Now()
	switch {
	case interrupted:
		stopAll()
	case cfg.requests == 0:
		if sleepOrStop(cfg.duration, stop) {
			fmt.Println("vrio-loadgen: interrupted, draining in-flight requests")
		}
		stopAll()
	default:
		// Quota mode: workers stop themselves; a signal still drains early.
		done := make(chan struct{})
		go func() {
			select {
			case <-stop:
				fmt.Println("vrio-loadgen: interrupted, draining in-flight requests")
				stopAll()
			case <-done:
			}
		}()
		defer close(done)
	}
	wg.Wait()
	return report(cfg, workers, time.Since(t0))
}

// summaryJSON is the machine-readable run result (-summary).
type summaryJSON struct {
	Carrier   string  `json:"carrier"`
	Workers   int     `json:"workers"`
	Guests    int     `json:"guests"`
	BlkSize   int     `json:"blk_size"`
	BlkQueues int     `json:"blk_queues"`
	BlkDepth  int     `json:"blk_depth"`
	NetFrac   float64 `json:"net_frac"`
	Loss      float64 `json:"loss"`
	Corrupt   float64 `json:"corrupt"`
	Seconds   float64 `json:"seconds"`
	Requests  uint64  `json:"requests"`
	ReqPerSec float64 `json:"req_per_sec"`
	MBPerSec  float64 `json:"mb_per_sec"`

	BlkDone   uint64  `json:"blk_done"`
	BlkErrors uint64  `json:"blk_errors"`
	BlkP50us  float64 `json:"blk_p50_us"`
	BlkP95us  float64 `json:"blk_p95_us"`
	BlkP99us  float64 `json:"blk_p99_us"`

	NetDone uint64 `json:"net_done"`
	NetLost uint64 `json:"net_lost"`

	DigestMismatches uint64 `json:"digest_mismatches"`
	Retransmits      uint64 `json:"retransmits"`
	DropsInjected    uint64 `json:"drops_injected"`
	DropsCorruptFCS  uint64 `json:"drops_corrupt_fcs"`
	PoolMisses       uint64 `json:"pool_misses"`
}

// report merges the per-worker shards in worker order (deterministic for
// a given set of shard contents), prints the human summary, writes the
// optional artifacts, and decides the exit code: a single digest mismatch
// fails the run.
func report(cfg *config, workers []*worker, elapsed time.Duration) int {
	var blk, net stats.Histogram
	var total stats.Counters
	var drops link.DropStats
	var retrans, sent, poolMisses uint64
	var span time.Duration
	for _, w := range workers {
		blk.Merge(&w.blkLat)
		net.Merge(&w.netLat)
		total.Merge(&w.ctr)
		retrans += w.drv.Counters.Get("retransmits")
		drops.Merge(&w.carrier.Drops)
		sent += w.carrier.Sent
		poolMisses += w.pool.Stats.Misses
		if d := time.Duration(w.measureEnd - w.measureStart); d > span {
			span = d
		}
	}
	secs := span.Seconds()
	if secs <= 0 {
		secs = elapsed.Seconds()
	}
	ops := total.Get("blk_done") + total.Get("net_done")
	mism := total.Get("digest_mismatch")
	mbs := float64(total.Get("bytes")) / secs / 1e6

	fmt.Printf("\nvrio-loadgen: %s, %d workers x %d guests, blk %d B",
		cfg.carrier, cfg.workers, cfg.guests, cfg.blkSize)
	if cfg.blkQueues > 1 || cfg.blkDepth > 1 {
		fmt.Printf(", %d queues x QD%d per guest", cfg.blkQueues, cfg.blkDepth)
	}
	if cfg.loss > 0 || cfg.corrupt > 0 {
		fmt.Printf(", injected loss %.0f%% corrupt %.1f%%", cfg.loss*100, cfg.corrupt*100)
	}
	fmt.Println()
	fmt.Printf("measured:    %d verified requests in %.2fs  (%.0f req/s, %.1f MB/s)\n",
		ops, secs, float64(ops)/secs, mbs)
	blkPct := blk.Percentiles(50, 95, 99)
	if blk.Count() > 0 {
		fmt.Printf("blk latency: p50 %.0f µs  p95 %.0f µs  p99 %.0f µs  max %.0f µs  (%d ops)\n",
			float64(blkPct[0])/1e3, float64(blkPct[1])/1e3,
			float64(blkPct[2])/1e3, float64(blk.Max())/1e3, blk.Count())
	}
	if net.Count() > 0 || total.Get("net_lost") > 0 {
		fmt.Printf("net latency: p50 %.0f µs  p99 %.0f µs  (%d echoed, %d lost, %d late)\n",
			float64(net.Percentile(50))/1e3, float64(net.Percentile(99))/1e3,
			net.Count(), total.Get("net_lost"), total.Get("net_late"))
	}
	fmt.Printf("verify:      %d digests ok, %d mismatches\n", ops, mism)
	fmt.Printf("wire:        %d frames sent, %d retransmits, %d device errors; drops: %d injected, %d corrupt_fcs, %d no_route; pool misses %d\n",
		sent, retrans, total.Get("blk_errors"), drops.Get(link.DropInjected),
		drops.Get(link.DropCorruptFCS), drops.Get(link.DropNoRoute), poolMisses)

	if cfg.metricsPath != "" {
		tss := make([]*trace.Timeseries, len(workers))
		for i, w := range workers {
			tss[i] = w.ts
		}
		if err := writeMetrics(cfg.metricsPath, tss...); err != nil {
			fmt.Fprintln(os.Stderr, "vrio-loadgen:", err)
		}
	}
	if cfg.summaryPath != "" {
		s := summaryJSON{
			Carrier: cfg.carrier, Workers: cfg.workers, Guests: cfg.guests,
			BlkSize: cfg.blkSize, BlkQueues: cfg.blkQueues, BlkDepth: cfg.blkDepth,
			NetFrac: cfg.netFrac, Loss: cfg.loss, Corrupt: cfg.corrupt,
			Seconds: secs, Requests: ops, ReqPerSec: float64(ops) / secs, MBPerSec: mbs,
			BlkDone: total.Get("blk_done"), BlkErrors: total.Get("blk_errors"),
			BlkP50us: float64(blkPct[0]) / 1e3,
			BlkP95us: float64(blkPct[1]) / 1e3,
			BlkP99us: float64(blkPct[2]) / 1e3,
			NetDone:  total.Get("net_done"), NetLost: total.Get("net_lost"),
			DigestMismatches: mism, Retransmits: retrans,
			DropsInjected:   drops.Get(link.DropInjected),
			DropsCorruptFCS: drops.Get(link.DropCorruptFCS),
			PoolMisses:      poolMisses,
		}
		b, _ := json.MarshalIndent(&s, "", "  ")
		if err := os.WriteFile(cfg.summaryPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "vrio-loadgen:", err)
		} else {
			fmt.Printf("wrote %s\n", cfg.summaryPath)
		}
	}

	if mism > 0 {
		fmt.Println("FAILED: digest mismatches")
		return 1
	}
	if ops == 0 {
		fmt.Println("FAILED: no requests completed")
		return 1
	}
	return 0
}
