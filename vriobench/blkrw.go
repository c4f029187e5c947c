package main

import (
	"bytes"
	"time"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/sim"
)

// blk-rw input shape: closed-loop 4 KiB random block I/O, 70% reads, over
// a 2 MiB working set (the default volume capacity) whose first hotBlocks
// blocks are shared by every queue, so the IOhost range-conflict scheduler
// has cross-queue conflicts to arbitrate.
const (
	blkSize    = 4096
	blkSectors = blkSize / 512
	blkBlocks  = 512
	hotBlocks  = 8
	hotShare   = 0.125
	readShare  = 0.7
	blkQueues  = 4
	blkDepth   = 8
)

// blkBed is one blk-rw testbed.
type blkBed struct {
	name string
	spec cluster.Spec
}

// blkBeds are the four block pipelines blk-rw runs in turn.
func blkBeds(seed uint64, traced bool) []blkBed {
	base := cluster.Spec{VMsPerHost: 2, Seed: seed, Trace: traced}
	plain := base
	plain.Model, plain.WithBlock, plain.BlkQueues, plain.IOhostSidecores = core.ModelVRIO, true, blkQueues, 2
	vol := base
	vol.Model, vol.NumIOhosts, vol.VolReplicas, vol.VolQuorum, vol.VolQueues, vol.IOhostSidecores = core.ModelVRIO, 3, 3, 2, blkQueues, 2
	elvis := base
	elvis.Model, elvis.WithBlock, elvis.SidecoresPerHost = core.ModelElvis, true, 1
	baseline := base
	baseline.Model, baseline.WithBlock = core.ModelBaseline, true
	return []blkBed{{"vrio", plain}, {"vrio-volume", vol}, {"elvis", elvis}, {"baseline", baseline}}
}

// blockState is the verifier's model of one 4 KiB block: the version of
// the last acknowledged write, unless overlapping writes made the content
// ambiguous.
type blockState struct {
	version  uint32
	known    bool
	epoch    uint32 // bumped by every write issue
	inflight int    // writes in flight
	overlap  bool   // a write was issued while another was in flight
}

// blkClient drives one guest: blkQueues×blkDepth closed-loop chains, each
// with one request in flight.
type blkClient struct {
	eng   *sim.Engine
	write func(q uint8, sector uint64, data []byte, done func(error))
	read  func(q uint8, sector uint64, sectors int, done func([]byte, error))
	rng   *sim.RNG
	seed  uint64
	guest uint64

	blocks  [blkBlocks]blockState
	version uint32
	stop    bool
	active  int
	counts  []uint8 // completions per op id: the exactly-once ledger
	win     window
	readLat *[]int64
	wrLat   *[]int64

	// Failures by kind, plus reads that could be checked.
	errs, mismatches, verified uint64

	corrupt    func([]byte)
	timeSubmit bool
	submitNs   int64
	submits    int64
}

type blkChain struct {
	c     *blkClient
	queue uint8
	buf   []byte
	want  []byte
}

// content fills b with the bytes write `version` of block puts there.
func (c *blkClient) content(b []byte, block uint64, version uint32) {
	if version == 0 {
		clear(b)
		return
	}
	x := c.seed ^ c.guest<<48 ^ block<<32 ^ uint64(version)
	for i := 0; i < len(b); i += 8 {
		// splitmix64: cheap, and distinct for every (guest, block, version).
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		for k := 0; k < 8; k++ {
			b[i+k] = byte(z >> (8 * k))
		}
	}
}

func (c *blkClient) start() {
	for q := 0; q < blkQueues; q++ {
		for d := 0; d < blkDepth; d++ {
			ch := &blkChain{c: c, queue: uint8(q), buf: make([]byte, blkSize), want: make([]byte, blkSize)}
			c.active++
			ch.next()
		}
	}
}

func (c *blkClient) pickBlock() uint64 {
	if c.rng.Float64() < hotShare {
		return uint64(c.rng.Intn(hotBlocks))
	}
	return uint64(hotBlocks + c.rng.Intn(blkBlocks-hotBlocks))
}

func (ch *blkChain) next() {
	c := ch.c
	if c.stop {
		c.active--
		return
	}
	id := len(c.counts)
	c.counts = append(c.counts, 0)
	block := c.pickBlock()
	sector := block * blkSectors
	st := &c.blocks[block]
	issued := c.eng.Now()
	read := c.rng.Float64() < readShare
	var readDone func([]byte, error)
	var writeDone func(error)
	if read {
		epoch, clean := st.epoch, st.inflight == 0
		readDone = func(data []byte, err error) {
			c.counts[id]++
			switch {
			case err != nil:
				c.errs++
			case clean && st.inflight == 0 && st.epoch == epoch && st.known:
				c.verified++
				c.content(ch.want, block, st.version)
				if c.corrupt != nil {
					// The chain's write buffer is idle while its read is out.
					data = append(ch.buf[:0], data...)
					c.corrupt(data)
				}
				if !bytes.Equal(data, ch.want) {
					c.mismatches++
				}
			}
			c.record(c.readLat, issued)
			ch.next()
		}
	} else {
		c.version++
		v := c.version
		c.content(ch.buf, block, v)
		st.epoch++
		if st.inflight > 0 {
			st.overlap = true
		}
		st.inflight++
		writeDone = func(err error) {
			c.counts[id]++
			st.inflight--
			switch {
			case err != nil:
				c.errs++
				st.known = false
			case st.overlap:
				st.known = false
			default:
				st.known, st.version = true, v
			}
			if st.inflight == 0 {
				st.overlap = false
			}
			c.record(c.wrLat, issued)
			ch.next()
		}
	}
	var t0 time.Time
	if c.timeSubmit {
		t0 = time.Now()
	}
	if read {
		c.read(ch.queue, sector, blkSectors, readDone)
	} else {
		c.write(ch.queue, sector, ch.buf, writeDone)
	}
	if c.timeSubmit {
		c.submitNs += time.Since(t0).Nanoseconds()
		c.submits++
	}
}

func (c *blkClient) record(lat *[]int64, issued sim.Time) {
	if now := c.eng.Now(); c.win.holds(now) {
		*lat = append(*lat, int64(now-issued))
	}
}

// blkResult is one testbed of one blk-rw round.
type blkResult struct {
	name                     string
	tb                       *cluster.Testbed
	buildS, wallS, allocMB   float64
	events                   uint64
	readLat, wrLat           []int64
	win                      window
	ops, dup, lost           uint64
	errs, mismatches, verify uint64
	submitNs, submits        int64
}

func runBlkTestbed(bed blkBed, cfg *config, timeSubmit bool) blkResult {
	t0 := time.Now()
	tb := cluster.Build(bed.spec)
	r := blkResult{name: bed.name, tb: tb, buildS: time.Since(t0).Seconds()}
	r.win = window{start: cfg.sc.blkWarm, end: cfg.sc.blkWarm + cfg.sc.blkWindow}

	clients := make([]*blkClient, len(tb.Guests))
	for i, g := range tb.Guests {
		c := &blkClient{
			eng: tb.Eng, rng: sim.NewRNG(cfg.seed ^ uint64(i+1)*0x9e3779b97f4a7c15),
			seed: cfg.seed, guest: uint64(i), win: r.win, readLat: &r.readLat, wrLat: &r.wrLat,
			corrupt: cfg.corrupt, timeSubmit: timeSubmit,
		}
		if len(tb.Volumes) > 0 {
			v := tb.Volumes[i]
			c.write = func(_ uint8, s uint64, d []byte, done func(error)) { v.Write(s, d, done) }
			c.read = func(_ uint8, s uint64, n int, done func([]byte, error)) { v.Read(s, n, done) }
		} else {
			c.write, c.read = g.WriteBlockQ, g.ReadBlockQ
		}
		clients[i] = c
		tb.Eng.At(0, c.start)
	}
	tb.Eng.At(r.win.end, func() {
		for _, c := range clients {
			c.stop = true
		}
	})

	var am allocMeter
	ex := tb.Eng.Executed()
	am.start()
	t1 := time.Now()
	tb.Eng.RunUntil(r.win.end)
	drain(tb.Eng, func() bool {
		for _, c := range clients {
			if c.active > 0 {
				return false
			}
		}
		return true
	})
	r.wallS = time.Since(t1).Seconds()
	r.allocMB = am.stopMB()
	r.events = tb.Eng.Executed() - ex
	for _, c := range clients {
		ops, dup, lost := ledger(c.counts)
		r.ops += ops
		r.dup += dup
		r.lost += lost
		r.errs += c.errs
		r.mismatches += c.mismatches
		r.verify += c.verified
		r.submitNs += c.submitNs
		r.submits += c.submits
	}
	return r
}

// blkSim is the model's claim from the vrio testbed of a blk-rw round.
type blkSim struct {
	all, read, write latencySummary
	kops             float64
}

func blkSummary(r blkResult) blkSim {
	all := append(append([]int64(nil), r.readLat...), r.wrLat...)
	return blkSim{all: summarize(all), read: summarize(r.readLat), write: summarize(r.wrLat), kops: kops(len(all), r.win)}
}

// runBlkRW is the blk-rw workload: rounds of the four block testbeds until
// the time budget is spent.
func runBlkRW(cfg *config) (*outcome, error) {
	o := newOutcome()
	var first *blkSim
	var verified uint64
	for p := cfg.pacer(); p.next(); {
		rc := newRefClock(1)
		var times roundTimes
		var alloc float64
		for _, bed := range blkBeds(cfg.seed, false) {
			r := runBlkTestbed(bed, cfg, false)
			times.add(r.buildS, r.wallS, rc.mark())
			alloc += r.allocMB
			o.attempted += r.ops
			o.fail("blk_duplicate", r.dup)
			o.fail("blk_lost", r.lost)
			o.fail("blk_device_error", r.errs)
			o.fail("blk_read_mismatch", r.mismatches)
			verified += r.verify
			if bed.name != "vrio" {
				continue
			}
			s := blkSummary(r)
			if first == nil {
				first = &s
			} else if s != *first {
				o.fail("sim_metric_not_repeated", 1)
			}
		}
		o.addTimes(times)
		o.add("alloc_mb", alloc)
		o.add("p50_us", first.all.P50)
		o.add("p99_us", first.all.P99)
		o.add("kops", first.kops)
	}
	o.detail("setup_s", "s (ref)", "summed cluster.Build of the four testbeds, median over rounds")
	o.detail("wall_s", "s (ref)", "measured phase of the four testbeds, median over rounds")
	o.detail("alloc_mb", "MB", "heap allocated in the measured phase, median over rounds")
	o.detailValue("sim_kops", first.kops, "kops/sim-s", first.all.N, "block ops on the vrio testbed")
	o.detailValue("sim_p50_us", first.all.P50, "us (sim)", first.all.N, "block ops on the vrio testbed")
	o.detailValue("sim_read_p99_us", first.read.P99, "us (sim)", first.read.N, "reads on the vrio testbed")
	o.detailValue("sim_write_p99_us", first.write.P99, "us (sim)", first.write.N, "writes on the vrio testbed")
	o.note("verified_reads", verified)
	return o, nil
}
