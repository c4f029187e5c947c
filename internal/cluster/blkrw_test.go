package cluster

import (
	"bytes"
	"runtime"
	"testing"

	"vrio/internal/bufpool"
	"vrio/internal/core"
	"vrio/internal/fault"
	"vrio/internal/sim"
)

// The blk-rw input shape: closed-loop 4 KiB random block I/O, 70% reads, over
// 512 blocks (2 MiB, the default volume capacity) whose first 8 are shared
// by every queue, NQ4 x QD8 per guest.
const (
	blkRWSize   = 4096
	blkRWBlocks = 512
	blkRWHot    = 8
	blkRWQueues = 4
	blkRWDepth  = 8
)

// blkRWBed is one of the four block pipelines of the blk-rw benchmark.
type blkRWBed struct {
	name string
	spec Spec
}

// blkRWBeds are the blk-rw testbeds: a vRIO remote device with four queues,
// a vRIO R3/W2 volume over three IOhosts, and Elvis and baseline local
// devices, two guests each.
func blkRWBeds(seed uint64) []blkRWBed {
	base := Spec{VMsPerHost: 2, Seed: seed}
	plain := base
	plain.Model, plain.WithBlock, plain.BlkQueues, plain.IOhostSidecores = core.ModelVRIO, true, blkRWQueues, 2
	vol := base
	vol.Model, vol.NumIOhosts, vol.VolReplicas, vol.VolQuorum, vol.VolQueues, vol.IOhostSidecores = core.ModelVRIO, 3, 3, 2, blkRWQueues, 2
	elvis := base
	elvis.Model, elvis.WithBlock, elvis.SidecoresPerHost = core.ModelElvis, true, 1
	baseline := base
	baseline.Model, baseline.WithBlock = core.ModelBaseline, true
	return []blkRWBed{{"vrio", plain}, {"vrio-volume", vol}, {"elvis", elvis}, {"baseline", baseline}}
}

// blkBlock is the driver's model of one block: the version of the last
// acknowledged write, unless overlapping or failed writes made the content
// unknown.
type blkBlock struct {
	version  uint32
	known    bool
	epoch    uint32 // bumped by every write issued
	inflight int    // writes in flight
	overlap  bool   // a write was issued while another was in flight
}

// blkRWGuest drives one guest with blkRWQueues x blkRWDepth closed-loop
// chains. Every callback is bound once per chain, so the driver itself does
// not allocate. It first writes every block once (so the backing store's
// pages exist), then mixes reads and writes. Each write fills the block with
// bytes unique to (guest, block, version); a read of a block that no write
// touched while it was out must return the last acknowledged write.
type blkRWGuest struct {
	rng    *sim.RNG
	seed   uint64
	guest  uint64
	sector uint64 // sectors per block
	write  func(q uint8, sector uint64, data []byte, done func(error))
	read   func(q uint8, sector uint64, sectors int, done func([]byte, error))

	blocks  [blkRWBlocks]blkBlock
	fill    int // next block of the initial write sweep
	version uint32
	stop    bool
	chains  []*blkRWChain

	ops, errs, verified, mismatches, dups uint64
}

// blkRWChain is one closed loop: one request in flight at a time.
type blkRWChain struct {
	g       *blkRWGuest
	queue   uint8
	buf     []byte // the write payload
	want    []byte // a verified read's expected bytes
	block   uint64
	version uint32 // the write's version
	epoch   uint32 // the block's write epoch when the read was issued
	clean   bool   // no write to the block was in flight when the read was issued
	busy    bool   // a request is in flight
	readFn  func([]byte, error)
	writeFn func(error)
}

// content fills b with the bytes write `version` of block puts there.
func (g *blkRWGuest) content(b []byte, block uint64, version uint32) {
	x := g.seed ^ g.guest<<48 ^ block<<32 ^ uint64(version)
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15 // splitmix64
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		for k := 0; k < 8; k++ {
			b[i+k] = byte(z >> (8 * k))
		}
	}
}

// newBlkRWDriver attaches a driver to every guest of tb and starts it.
func newBlkRWDriver(tb *Testbed, seed uint64) []*blkRWGuest {
	var gs []*blkRWGuest
	for i, guest := range tb.Guests {
		g := &blkRWGuest{
			rng: sim.NewRNG(seed ^ uint64(i+1)*0x9e3779b97f4a7c15), seed: seed, guest: uint64(i),
			sector: uint64(blkRWSize / tb.P.SectorSize),
		}
		if len(tb.Volumes) > 0 {
			v := tb.Volumes[i]
			g.write = func(_ uint8, s uint64, d []byte, done func(error)) { v.Write(s, d, done) }
			g.read = func(_ uint8, s uint64, n int, done func([]byte, error)) { v.Read(s, n, done) }
		} else {
			g.write, g.read = guest.WriteBlockQ, guest.ReadBlockQ
		}
		for q := 0; q < blkRWQueues; q++ {
			for d := 0; d < blkRWDepth; d++ {
				ch := &blkRWChain{g: g, queue: uint8(q), buf: make([]byte, blkRWSize), want: make([]byte, blkRWSize)}
				ch.readFn = ch.readDone
				ch.writeFn = ch.writeDone
				g.chains = append(g.chains, ch)
				tb.Eng.At(0, ch.next)
			}
		}
		gs = append(gs, g)
	}
	return gs
}

func (ch *blkRWChain) next() {
	g := ch.g
	if g.stop {
		return
	}
	ch.busy = true
	var read bool
	if g.fill < blkRWBlocks {
		ch.block = uint64(g.fill)
		g.fill++
	} else {
		if g.rng.Float64() < 0.125 {
			ch.block = uint64(g.rng.Intn(blkRWHot))
		} else {
			ch.block = uint64(blkRWHot + g.rng.Intn(blkRWBlocks-blkRWHot))
		}
		read = g.rng.Float64() < 0.7
	}
	st := &g.blocks[ch.block]
	if read {
		ch.epoch, ch.clean = st.epoch, st.inflight == 0
		g.read(ch.queue, ch.block*g.sector, int(g.sector), ch.readFn)
		return
	}
	g.version++
	ch.version = g.version
	g.content(ch.buf, ch.block, ch.version)
	st.epoch++
	if st.inflight > 0 {
		st.overlap = true
	}
	st.inflight++
	g.write(ch.queue, ch.block*g.sector, ch.buf, ch.writeFn)
}

// complete checks the exactly-once ledger and reports whether the
// completion belongs to the request in flight.
func (ch *blkRWChain) complete() bool {
	if !ch.busy {
		ch.g.dups++
		return false
	}
	ch.busy = false
	ch.g.ops++
	return true
}

func (ch *blkRWChain) readDone(data []byte, err error) {
	if !ch.complete() {
		return
	}
	g := ch.g
	st := &g.blocks[ch.block]
	switch {
	case err != nil:
		g.errs++
	case ch.clean && st.inflight == 0 && st.epoch == ch.epoch && st.known:
		g.verified++
		g.content(ch.want, ch.block, st.version)
		if !bytes.Equal(data, ch.want) {
			g.mismatches++
		}
	}
	ch.next()
}

func (ch *blkRWChain) writeDone(err error) {
	if !ch.complete() {
		return
	}
	g := ch.g
	st := &g.blocks[ch.block]
	st.inflight--
	switch {
	case err != nil:
		g.errs++
		st.known = false
	case st.overlap:
		st.known = false
	default:
		st.known, st.version = true, ch.version
	}
	if st.inflight == 0 {
		st.overlap = false
	}
	ch.next()
}

// blkRWOps totals the completed block operations.
func blkRWOps(gs []*blkRWGuest) uint64 {
	var n uint64
	for _, g := range gs {
		n += g.ops
	}
	return n
}

// blkRWTestbed builds one blk-rw bed with its driver, and runs it until
// every guest has written every block and 5 ms more, so the stores' pages,
// the pools and free lists are at their high-water marks.
func blkRWTestbed(t testing.TB, bed blkRWBed) (*Testbed, []*blkRWGuest) {
	tb := Build(bed.spec)
	gs := newBlkRWDriver(tb, bed.spec.Seed)
	for swept := false; !swept; {
		if tb.Eng.Now() > sim.Second {
			t.Fatalf("%s: the write sweep did not finish", bed.name)
		}
		tb.Eng.RunUntil(tb.Eng.Now() + sim.Millisecond)
		swept = true
		for _, g := range gs {
			swept = swept && g.fill == blkRWBlocks
		}
	}
	tb.Eng.RunUntil(tb.Eng.Now() + 5*sim.Millisecond)
	return tb, gs
}

// TestBlkRWSteadyStateZeroAlloc pins the testbed-level zero-allocation
// invariant of the block path: once warm, blk-rw on every block pipeline —
// guest front ends, rings and host sites, the vRIO transport, IOhost
// workers, the range scheduler, the volume router and the devices — runs
// without a heap allocation.
func TestBlkRWSteadyStateZeroAlloc(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, bed := range blkRWBeds(1) {
		t.Run(bed.name, func(t *testing.T) {
			tb, gs := blkRWTestbed(t, bed)
			before := blkRWOps(gs)
			// Each 100 µs advance carries 6 (baseline) to 65 (volume)
			// block operations, so one allocation per request shows as six
			// or more per run.
			allocs := testing.AllocsPerRun(100, func() {
				tb.Eng.RunUntil(tb.Eng.Now() + 100*sim.Microsecond)
			})
			if blkRWOps(gs) == before {
				t.Fatal("no block operation completed while measuring")
			}
			if allocs != 0 {
				t.Errorf("%v allocs per 100 µs of blk-rw, want 0", allocs)
			}
		})
	}
}

// BenchmarkBlkRWOp reports the host cost of one blk-rw block operation (ns
// and allocs per op), per block pipeline, and the testbed pool's loans per
// operation (loans/op).
func BenchmarkBlkRWOp(b *testing.B) {
	for _, bed := range blkRWBeds(1) {
		b.Run(bed.name, func(b *testing.B) {
			tb, gs := blkRWTestbed(b, bed)
			b.ReportAllocs()
			b.ResetTimer()
			start, gets := blkRWOps(gs), tb.pool.Stats.Gets
			for blkRWOps(gs)-start < uint64(b.N) {
				tb.Eng.RunUntil(tb.Eng.Now() + 10*sim.Microsecond)
			}
			b.ReportMetric(float64(tb.pool.Stats.Gets-gets)/float64(blkRWOps(gs)-start), "loans/op")
		})
	}
}

// Every block read with no write in flight returns the last acknowledged
// write, and every request completes exactly once, on all four block
// pipelines, on a clean rack and under the chaos fault profile (frame loss,
// corruption and reordering, squeezed rings, carrier flaps and IOhost
// worker stalls), whose losses make the vRIO transport retransmit. A
// request buffer or chain recycled while a retransmission or an interrupt
// still uses it shows up as a mismatch, a lost or duplicated completion, or
// a ring protocol panic.
func TestBlkRWPayloadIntegrity(t *testing.T) {
	chaos, err := fault.ParseProfile("chaos")
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range []struct {
		name string
		p    *fault.Profile
	}{{"clean", nil}, {"chaos", chaos}} {
		for _, bed := range blkRWBeds(5) {
			t.Run(prof.name+"/"+bed.name, func(t *testing.T) {
				spec := bed.spec
				spec.Fault = prof.p
				tb := Build(spec)
				gs := newBlkRWDriver(tb, spec.Seed)
				tb.Eng.RunUntil(40 * sim.Millisecond)
				for _, g := range gs {
					g.stop = true
				}
				// Drain to quiescence: far above any round trip, §4.5
				// retransmission included.
				tb.Eng.RunUntil(tb.Eng.Now() + 200*sim.Millisecond)
				var ops, verified, errs uint64
				for i, g := range gs {
					lost := 0
					for _, ch := range g.chains {
						if ch.busy {
							lost++
						}
					}
					if g.mismatches > 0 || g.dups > 0 || lost > 0 {
						t.Errorf("guest %d: %d reads returned wrong bytes, %d duplicate and %d lost completions",
							i, g.mismatches, g.dups, lost)
					}
					ops, verified, errs = ops+g.ops, verified+g.verified, errs+g.errs
				}
				if verified < 500 {
					t.Errorf("only %d of %d operations were verified reads", verified, ops)
				}
				if prof.p == nil && errs > 0 {
					t.Errorf("%d block errors on a clean rack", errs)
				}
				t.Logf("%d ops, %d verified reads, %d errors", ops, verified, errs)
			})
		}
	}
}

// coldBlkChain is one closed loop of the cold-start block driver: 70% reads
// of blocks nothing wrote, which read as zeros, and 30% writes to the
// blkRWHot blocks, written before the clock starts, so the backing store
// allocates no page while measured. Its callbacks are bound once.
type coldBlkChain struct {
	g       *core.Guest
	rng     *sim.RNG
	queue   uint8
	sector  uint64 // sectors per block
	buf     []byte
	ops     uint64
	errs    uint64
	readFn  func([]byte, error)
	writeFn func(error)
}

func newColdBlkChain(g *core.Guest, rng *sim.RNG, queue uint8, sector uint64) *coldBlkChain {
	ch := &coldBlkChain{g: g, rng: rng, queue: queue, sector: sector, buf: make([]byte, blkRWSize)}
	ch.writeFn = func(err error) {
		ch.ops++
		if err != nil {
			ch.errs++
		}
		ch.next()
	}
	ch.readFn = func(_ []byte, err error) { ch.writeFn(err) }
	return ch
}

func (ch *coldBlkChain) next() {
	if ch.rng.Float64() < 0.7 {
		block := uint64(blkRWHot + ch.rng.Intn(blkRWBlocks-blkRWHot))
		ch.g.ReadBlockQ(ch.queue, block*ch.sector, int(ch.sector), ch.readFn)
		return
	}
	ch.g.WriteBlockQ(ch.queue, uint64(ch.rng.Intn(blkRWHot))*ch.sector, ch.buf, ch.writeFn)
}

// TestBlkColdStartAllocBudget bounds the heap a fresh blk-rw testbed
// allocates over its first 10 ms of block traffic, NQ4 x QD8 per guest, per
// block pipeline, a few percent above what it measures. The steady-state
// guard warms each testbed first, so it misses the growth every new testbed
// pays: the first loans of the request and reply slabs, the rings' batches,
// the host sites and the transport's tables. On the devices of one guest
// (vRIO remote, Elvis, baseline) the driver keeps store pages out of the
// window (see coldBlkChain), so the budget measures the block path itself.
// On the R3/W2 volume the window is the blk-rw driver's own start, whose
// write sweep gives every block its first page: the budget holds the three
// replicas of a block to one page, and a page per replica fails it.
func TestBlkColdStartAllocBudget(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	budgets := map[string]uint64{
		"vrio":        420 << 10,
		"vrio-volume": 6400 << 10,
		"elvis":       184 << 10,
		"baseline":    368 << 10,
	}
	for _, bed := range blkRWBeds(1) {
		t.Run(bed.name, func(t *testing.T) {
			tb := Build(bed.spec)
			var start func()
			var tally func() (ops, errs uint64)
			if len(tb.Volumes) > 0 {
				gs := newBlkRWDriver(tb, bed.spec.Seed)
				start = func() {}
				tally = func() (ops, errs uint64) {
					for _, g := range gs {
						ops, errs = ops+g.ops, errs+g.errs+g.mismatches
					}
					return ops, errs
				}
			} else {
				chains := coldBlkChains(t, tb)
				start = func() {
					for _, ch := range chains {
						ch.next()
					}
				}
				tally = func() (ops, errs uint64) {
					for _, ch := range chains {
						ops, errs = ops+ch.ops, errs+ch.errs
					}
					return ops, errs
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start()
			tb.Eng.RunUntil(10 * sim.Millisecond)
			runtime.ReadMemStats(&after)
			ops, errs := tally()
			if ops == 0 || errs > 0 {
				t.Fatalf("%d block ops completed, %d failed", ops, errs)
			}
			got, budget := after.TotalAlloc-before.TotalAlloc, budgets[bed.name]
			t.Logf("first 10 ms (%d ops) allocated %d bytes", ops, got)
			if got >= budget {
				t.Errorf("first 10 ms allocated %d bytes, budget %d", got, budget)
			}
		})
	}
}

// coldBlkChains writes the blkRWHot blocks of every guest's device and
// returns blkRWQueues x blkRWDepth cold-start chains per guest, not started.
func coldBlkChains(t *testing.T, tb *Testbed) []*coldBlkChain {
	var chains []*coldBlkChain
	for i, g := range tb.Guests {
		sector := uint64(blkRWSize / tb.P.SectorSize)
		for b := uint64(0); b < blkRWHot; b++ {
			if err := tb.BlockDevices[i].Store().Write(b*sector, make([]byte, blkRWSize)); err != nil {
				t.Fatal(err)
			}
		}
		rng := sim.NewRNG(uint64(i + 1))
		for q := 0; q < blkRWQueues; q++ {
			for d := 0; d < blkRWDepth; d++ {
				chains = append(chains, newColdBlkChain(g, rng, uint8(q), sector))
			}
		}
	}
	return chains
}
