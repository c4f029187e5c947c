package virtio

import (
	"bytes"
	"testing"
	"unsafe"

	"vrio/internal/bufpool"
)

// pattern returns n bytes derived from seed, so a reference can regenerate
// what was sent.
func pattern(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*31 + i*7)
	}
	return b
}

// checkRingMemory checks the ring's memory contract against its users'
// pool: the driver and the device hold nothing between operations, so the
// buffers the descriptors carry are exactly the pool's outstanding loans,
// and no free descriptor carries one.
func checkRingMemory(t *testing.T, r *Ring, pool *bufpool.Pool) {
	t.Helper()
	held := 0
	for _, b := range r.bufs {
		if b != nil {
			held++
		}
	}
	if out := int64(pool.Stats.Gets - pool.Stats.Puts); int64(held) != out {
		t.Fatalf("descriptors hold %d slabs, the pool has %d out", held, out)
	}
	d := r.freeHead
	for i := 0; i < r.numFree; i++ {
		if r.bufs[d] != nil {
			t.Fatalf("free descriptor %d holds a slab", d)
		}
		_, _, d = r.readDesc(d)
	}
}

// refReq is the reference model's record of one posted request.
type refReq struct {
	out   [][]byte
	in    []int
	descs int
}

// refUsed is one pushed completion the driver has not reaped yet.
type refUsed struct {
	head uint16
	in   [][]byte
}

// runRingOps drives a small ring through the operation stream prog and
// checks every result against a byte-level reference: posted requests by
// head, the avail FIFO, the chains the device holds and the used FIFO. Each
// op is one byte (op%4: Add, PopInto, Push, ReapInto) followed by its
// argument bytes: Add takes a count of out buffers (%10) and their lengths,
// then a count of writable descriptors (%3) and their lengths; Push takes
// a held chain and a count of reply buffers (%4) and their lengths, a zero
// length being a nil buffer. The driver and the device draw every buffer
// they hand over from a pool and release every buffer handed to them once
// checked, and the device releases a reply buffer the chain had no
// descriptor for, so the ring holds exactly the pool's outstanding loans.
// At the end it drains the ring to quiescence, where every slab must be
// back in the pool.
func runRingOps(t *testing.T, prog []byte) {
	const qsize = 8
	pool := bufpool.New()
	r, err := NewRing(qsize)
	if err != nil {
		t.Fatal(err)
	}
	reqs := map[uint16]refReq{}
	var avail []uint16
	var held []Chain
	var used []refUsed
	free, seq := qsize, 0
	arg := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}

	add := func(outLens, in []int) {
		var out [][]byte
		var want error
		for _, n := range outLens {
			seq++
			out = append(out, pool.Clone(pattern(seq, n)))
			if n == 0 {
				want = ErrEmptyRequest
			}
		}
		for _, n := range in {
			if n == 0 {
				want = ErrEmptyRequest
			}
		}
		n := len(out) + len(in)
		switch {
		case want != nil:
		case n == 0:
			want = ErrEmptyRequest
		case n > qsize:
			want = ErrTooLarge
		case n > free:
			want = ErrRingFull
		}
		head, err := r.Add(out, in...)
		if err != want {
			t.Fatalf("Add(%v, %v) with %d free: err %v, want %v", outLens, in, free, err, want)
		}
		if err != nil {
			for _, b := range out {
				pool.PutRaw(b)
			}
			return
		}
		if _, dup := reqs[head]; dup {
			t.Fatalf("Add returned head %d, which is in flight", head)
		}
		kept := make([][]byte, len(out))
		for i, b := range out {
			kept[i] = bytes.Clone(b)
		}
		reqs[head] = refReq{out: kept, in: in, descs: n}
		avail = append(avail, head)
		free -= n
	}
	pop := func() {
		var c Chain
		ok, err := r.PopInto(&c)
		if err != nil || ok != (len(avail) > 0) {
			t.Fatalf("PopInto with %d available: %v, %v", len(avail), ok, err)
		}
		if !ok {
			return
		}
		want := reqs[avail[0]]
		if c.Head != avail[0] || len(c.Out) != len(want.out) {
			t.Fatalf("popped head %d with %d buffers, want head %d with %d", c.Head, len(c.Out), avail[0], len(want.out))
		}
		for i, b := range c.Out {
			if !bytes.Equal(b, want.out[i]) {
				t.Fatalf("head %d buffer %d: %x, want %x", c.Head, i, b, want.out[i])
			}
			pool.PutRaw(b)
		}
		avail = avail[1:]
		held = append(held, c)
	}
	push := func(i int, lens []int) {
		c := held[i]
		held = append(held[:i], held[i+1:]...)
		want := reqs[c.Head]
		var replies, in [][]byte
		written, d := 0, 0
		for _, n := range lens {
			var b []byte
			if n > 0 {
				seq++
				b = pool.Clone(pattern(seq, n))
			}
			replies = append(replies, b)
			switch {
			case b == nil:
			case d < len(want.in): // the next writable descriptor takes it
				w := min(n, want.in[d])
				in = append(in, bytes.Clone(b[:w]))
				written += w
				d++
			default: // dropped: released as the collector would
				defer pool.PutRaw(b)
			}
		}
		if got := r.Push(c, replies...); got != written {
			t.Fatalf("Push of %v into capacities %v wrote %d, want %d", lens, want.in, got, written)
		}
		used = append(used, refUsed{c.Head, in})
	}
	var batch ReapBatch
	reap := func(max int) {
		n := r.ReapInto(&batch, max)
		want := len(used)
		if max > 0 {
			want = min(want, max)
		}
		if n != want {
			t.Fatalf("ReapInto(%d) with %d used: reaped %d", max, len(used), n)
		}
		for _, comp := range batch.Completions {
			u := used[0]
			used = used[1:]
			if comp.Head != u.head || len(comp.In) != len(u.in) {
				t.Fatalf("reaped head %d with %d buffers, want head %d with %d", comp.Head, len(comp.In), u.head, len(u.in))
			}
			for i, b := range comp.In {
				if !bytes.Equal(b, u.in[i]) {
					t.Fatalf("head %d reply %d: %x, want %x", comp.Head, i, b, u.in[i])
				}
				pool.PutRaw(b)
			}
			free += reqs[u.head].descs
			delete(reqs, u.head)
		}
	}
	lens := func(n int, scale int) []int {
		l := make([]int, n)
		for i := range l {
			l[i] = arg() * scale
		}
		return l
	}

	for len(prog) > 0 {
		switch arg() % 4 {
		case 0:
			out := lens(arg()%10, 4)
			add(out, lens(arg()%3, 2))
		case 1:
			pop()
		case 2:
			if len(held) > 0 {
				i := arg() % len(held)
				push(i, lens(arg()%4, 2))
			}
		case 3:
			reap(arg() % 4)
		}
		if r.FreeDescriptors() != free || r.inFlight != len(reqs) {
			t.Fatalf("%d free, %d in flight; want %d, %d", r.FreeDescriptors(), r.inFlight, free, len(reqs))
		}
		checkRingMemory(t, r, pool)
	}

	// Quiescence: serve and reap everything still in the ring.
	for len(avail) > 0 {
		pop()
	}
	for len(held) > 0 {
		push(0, []int{64, 1})
	}
	reap(0)
	checkRingMemory(t, r, pool)
	if r.FreeDescriptors() != qsize || r.inFlight != 0 || pool.Stats.Gets != pool.Stats.Puts {
		t.Fatalf("quiescent ring: %d free, %d in flight, pool gets %d puts %d",
			r.FreeDescriptors(), r.inFlight, pool.Stats.Gets, pool.Stats.Puts)
	}
}

// FuzzRingOps checks random Add/PopInto/Push/ReapInto sequences against a
// byte-level reference and the ring's memory contract. The seed corpus runs
// under plain go test.
func FuzzRingOps(f *testing.F) {
	f.Add([]byte{})
	// A two-buffer request out and back; then a chain too large, one with
	// an empty buffer, one with no buffers and one reserving an empty reply
	// buffer.
	f.Add([]byte{0, 2, 16, 250, 1, 20, 1, 2, 0, 1, 30, 3, 0,
		0, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0,
		0, 1, 0, 1, 5,
		0, 0, 0,
		0, 1, 3, 2, 4, 0})
	// A virtio-blk read: data and status descriptors, answered with both,
	// with the status alone (a nil data buffer), and with one buffer more
	// than the chain has room for.
	f.Add([]byte{0, 1, 5, 2, 100, 1, 1, 2, 0, 2, 100, 1, 3, 0,
		0, 1, 5, 2, 100, 1, 1, 2, 0, 2, 0, 1, 3, 0,
		0, 1, 5, 2, 100, 1, 1, 2, 0, 3, 100, 1, 7, 3, 0})
	// Fill the ring, serve out of order, reap a few at a time.
	f.Add([]byte{0, 1, 40, 0, 0, 2, 40, 40, 1, 20, 0, 1, 40, 2, 10, 1, 0, 3, 1, 2, 3, 1, 10, 1, 1, 1, 1,
		2, 2, 1, 90, 2, 0, 2, 10, 1, 3, 1, 2, 0, 0, 3, 2, 2, 0, 1, 5, 3, 0})
	// Held chains across wraparound.
	prog := make([]byte, 0, 1500)
	for i := 0; i < 100; i++ {
		prog = append(prog, 0, byte(i%3), byte(i*13), byte(i*7), byte(i%3), byte(i*29), 1+byte(i%5),
			1, 2, byte(i), byte(i%4), byte(i*41), 1, 3, byte(i))
	}
	f.Add(prog)
	f.Fuzz(runRingOps)
}

// descs returns the descriptors of the chain at head, in chain order.
func descs(r *Ring, head uint16) []uint16 {
	var ds []uint16
	for d := head; ; {
		ds = append(ds, d)
		_, flags, next := r.readDesc(d)
		if flags&descFlagNext == 0 {
			return ds
		}
		d = next
	}
}

// A descriptor table rewritten into a cycle — a guest corrupting its shared
// memory — makes every chain walk stop within the queue size: PopInto
// reports ErrBadChain, and Push and ReapInto of a chain the device already
// holds return. A read chain whose status descriptor loops back to its data
// descriptor takes its data and status buffers, each once, and drops a
// third rather than refill the data descriptor. The reap leaves the
// ring sound: its free list holds each descriptor once and none in flight,
// and once the ring drains every descriptor is free, no descriptor holds a
// buffer, and Add hands out each descriptor once. Every buffer crosses the
// ring once; a reply buffer a chain has no empty writable descriptor for
// falls to the collector.
func TestRingCorruptChainStops(t *testing.T) {
	const qsize = 8
	loop := func(r *Ring, from, to uint16) {
		l, flags, _ := r.readDesc(from)
		r.writeDesc(from, l, flags|descFlagNext, to)
	}

	r := mustRing(t, qsize)
	head, _ := r.Add(bufs([]byte("req")), 200)
	ds := descs(r, head)
	loop(r, ds[len(ds)-1], ds[0])
	var c Chain
	if ok, err := r.PopInto(&c); ok || err != ErrBadChain {
		t.Errorf("PopInto of a cyclic chain: %v, %v; want ErrBadChain", ok, err)
	}

	for _, tc := range []struct {
		cycle string
		in    []int  // the writable descriptors reserved
		lost  uint64 // pushed replies the ring drops
		back  int    // reply buffers the reap hands back
	}{{"in descriptor", []int{200}, 0, 1}, {"head to itself", []int{200}, 1, 0}, {"status to data", []int{200, 1}, 1, 2}} {
		cycle := tc.cycle
		pool := bufpool.New()
		r := mustRing(t, qsize)
		head, _ := r.Add(bufs(pool.Clone([]byte("hdr")), pool.Clone([]byte("req"))), tc.in...)
		var c Chain
		if ok, err := r.PopInto(&c); !ok || err != nil {
			t.Fatalf("PopInto: %v, %v", ok, err)
		}
		for _, b := range c.Out {
			pool.PutRaw(b)
		}
		// other stays in flight across the corrupt reap, so the ring has
		// not drained when its free list is checked.
		other, _ := r.Add(bufs([]byte("other")))
		ds := descs(r, head)
		switch cycle {
		case "in descriptor":
			loop(r, ds[len(ds)-1], ds[1])
		case "head to itself":
			loop(r, head, head)
		case "status to data":
			loop(r, ds[3], ds[2])
		}
		replies := bufs(pool.GetRaw(4 * qsize * 64))
		if len(tc.in) > 1 { // the status, and one buffer the loop must not take
			replies = append(replies, pool.GetRaw(64), pool.GetRaw(64))
		}
		reserved := 0
		for _, n := range tc.in {
			reserved += n
		}
		if n := r.Push(c, replies...); n > reserved {
			t.Errorf("%s: Push wrote %d bytes beyond the %v reserved", cycle, n, tc.in)
		}
		var b ReapBatch
		if n := r.ReapInto(&b, 0); n != 1 {
			t.Errorf("%s: reaped %d, want 1", cycle, n)
		}
		in := b.Completions[0].In
		if len(in) != tc.back {
			t.Errorf("%s: the reap handed back %d reply buffers, want %d", cycle, len(in), tc.back)
		}
		for i, buf := range in {
			if unsafe.SliceData(buf) != unsafe.SliceData(replies[i]) {
				t.Errorf("%s: reply buffer %d is not the one pushed %d", cycle, i, i)
			}
			pool.PutRaw(buf)
		}
		onList := map[uint16]bool{other: true}
		for d, i := r.freeHead, 0; i < r.FreeDescriptors(); i++ {
			if onList[d] {
				t.Fatalf("%s: free list revisits descriptor %d or lists the one in flight", cycle, d)
			}
			onList[d] = true
			_, _, d = r.readDesc(d)
		}
		var oc Chain
		if ok, err := r.PopInto(&oc); !ok || err != nil || oc.Head != other {
			t.Fatalf("%s: PopInto of the other request: %v, %v", cycle, ok, err)
		}
		r.Push(oc)
		if n := r.ReapInto(&b, 0); n != 1 {
			t.Errorf("%s: reaped %d of the other request, want 1", cycle, n)
		}
		if n := r.FreeDescriptors(); n != r.QueueSize() {
			t.Errorf("%s: %d descriptors free after the reap, want %d", cycle, n, r.QueueSize())
		}
		for d, buf := range r.bufs {
			if buf != nil {
				t.Errorf("%s: drained ring: descriptor %d holds a buffer", cycle, d)
			}
		}
		if s := pool.Stats; s.Gets-s.Puts != tc.lost {
			t.Errorf("%s: pool lent %d slabs and got %d back, want %d lost", cycle, s.Gets, s.Puts, tc.lost)
		}
		heads := map[uint16]bool{}
		for i := 0; i < qsize; i++ {
			h, err := r.Add(bufs([]byte("x")))
			if err != nil || heads[h] {
				t.Errorf("%s: one-descriptor Add %d: head %d, %v; want a fresh head", cycle, i, h, err)
				break
			}
			heads[h] = true
		}
	}
}

// A chain the guest rewrote into one out descriptor and four in
// descriptors of 64, 64, 64 and 8 bytes (200 reserved), the last pointing
// back at the first in descriptor, is filled once: Push hands the reply to
// the first in descriptor, cut to its 64 bytes, and the reap returns that
// one slab and frees each descriptor once. (Chain.InCapacity summed such a
// loop's in descriptors to 392; no device sized a reply by it, and it is
// gone.)
func TestRingLoopedInChainFilledOnce(t *testing.T) {
	const qsize = 8
	pool := bufpool.New()
	r := mustRing(t, qsize)
	// Five descriptors, taken through Add: the guest then rewrites four.
	x := []byte("x")
	head, err := r.Add(bufs(pool.Clone([]byte("req")), x, x, x), 200)
	if err != nil {
		t.Fatal(err)
	}
	var c Chain
	if ok, err := r.PopInto(&c); !ok || err != nil {
		t.Fatalf("PopInto: %v, %v", ok, err)
	}
	pool.PutRaw(c.Out[0])
	ds := descs(r, head)
	for i, l := range []uint32{64, 64, 64, 8} {
		next := ds[1]
		if i < 3 {
			next = ds[i+2]
		}
		r.writeDesc(ds[i+1], l, descFlagWrite|descFlagNext, next)
	}
	reply := pool.GetRaw(392)
	if n := r.Push(c, reply); n != 64 {
		t.Errorf("Push wrote %d bytes, want 64, the first in descriptor's", n)
	}
	comps := reap(r, 0)
	if len(comps) != 1 || len(in1(comps[0])) != 64 || unsafe.SliceData(in1(comps[0])) != unsafe.SliceData(reply) {
		t.Fatalf("reap = %+v, want the pushed slab cut to 64 bytes", comps)
	}
	pool.PutRaw(in1(comps[0]))
	if n := r.FreeDescriptors(); n != qsize {
		t.Errorf("%d descriptors free after the reap, want %d", n, qsize)
	}
	if s := pool.Stats; s.Gets != s.Puts {
		t.Errorf("pool lent %d slabs and got %d back", s.Gets, s.Puts)
	}
}

// A buffer crosses the ring by hand-over: the ring draws no loan and copies
// no byte. The device gets the very slab the driver posted, and the driver
// reaps the very slab the device pushed.
func TestRingHandsBuffersOver(t *testing.T) {
	pool := bufpool.New()
	r := mustRing(t, 16)
	req, resp := pool.Clone(pattern(1, 100)), pool.Clone(pattern(2, 2048))
	gets := pool.Stats.Gets
	if _, err := r.Add(bufs(req), len(resp)); err != nil {
		t.Fatal(err)
	}
	var c Chain
	if ok, err := r.PopInto(&c); !ok || err != nil {
		t.Fatalf("PopInto: %v, %v", ok, err)
	}
	if len(c.Out) != 1 || unsafe.SliceData(c.Out[0]) != unsafe.SliceData(req) || len(c.Out[0]) != len(req) {
		t.Error("the device did not get the driver's slab")
	}
	r.Push(c, resp)
	comps := reap(r, 0)
	if len(comps) != 1 || unsafe.SliceData(in1(comps[0])) != unsafe.SliceData(resp) || len(in1(comps[0])) != len(resp) {
		t.Error("the driver did not reap the device's slab")
	}
	if pool.Stats.Gets != gets {
		t.Errorf("the ring drew %d loans", pool.Stats.Gets-gets)
	}
	if !bytes.Equal(in1(comps[0]), pattern(2, 2048)) {
		t.Error("the reply changed on its way")
	}
}

// roundTrip is one request through the ring as its users make it: the
// driver encodes a 100-byte request into a pool slab and posts it with room
// for a 2 KiB response; the device builds the response in a pool slab,
// releases the request and pushes; the driver reaps and releases the
// response.
func roundTrip(r *Ring, pool *bufpool.Pool, c *Chain, b *ReapBatch, req, resp []byte) {
	if _, err := r.Add([][]byte{pool.Clone(req)}, len(resp)); err != nil {
		panic(err)
	}
	if ok, err := r.PopInto(c); !ok || err != nil {
		panic("PopInto found no request")
	}
	pool.PutRaw(c.Out[0])
	r.Push(*c, pool.Clone(resp))
	r.ReapInto(b, 0)
	pool.PutRaw(b.Completions[0].In[0])
}

// Once the pool holds the slabs a request needs, a round trip through the
// ring allocates nothing.
func TestRingSteadyStateZeroAlloc(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	r, pool := mustRing(t, 256), bufpool.New()
	var c Chain
	var b ReapBatch
	req, resp := pattern(1, 100), pattern(2, 2048)
	roundTrip(r, pool, &c, &b, req, resp)
	allocs := testing.AllocsPerRun(100, func() { roundTrip(r, pool, &c, &b, req, resp) })
	if allocs != 0 {
		t.Errorf("%v allocs per round trip, want 0", allocs)
	}
	if pool.Stats.Gets != pool.Stats.Puts {
		t.Errorf("pool lent %d slabs and got %d back", pool.Stats.Gets, pool.Stats.Puts)
	}
}

// BenchmarkRingRoundTrip reports the host cost of one request through the
// ring (Add, PopInto, Push and ReapInto, with the request and the response
// each built in a pool slab) and the pool loans it takes (loans/op).
func BenchmarkRingRoundTrip(b *testing.B) {
	r, err := NewRing(256)
	if err != nil {
		b.Fatal(err)
	}
	pool := bufpool.New()
	var c Chain
	var batch ReapBatch
	req, resp := pattern(1, 100), pattern(2, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		roundTrip(r, pool, &c, &batch, req, resp)
	}
	b.ReportMetric(float64(pool.Stats.Gets)/float64(b.N), "loans/op")
}
