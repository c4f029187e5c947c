package virtio

import (
	"bytes"
	"testing"

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

// checkRingMemory checks the ring's memory contract against its pool: the
// slabs the descriptors hold are exactly the pool's outstanding loans, and
// no free descriptor holds one.
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
	out   []byte
	inLen int
	segs  int
}

// refUsed is one pushed completion the driver has not reaped yet.
type refUsed struct {
	head uint16
	in   []byte
}

// runRingOps drives a small ring through the operation stream prog and
// checks every result against a byte-level reference: posted requests by
// head, the avail FIFO, the chains the device holds and the used FIFO.
// Each op is one byte (op%4: Add, PopInto, Push, ReapInto) followed by its
// argument bytes. At the end it drains the ring to quiescence, where every
// slab must be back in the pool.
func runRingOps(t *testing.T, prog []byte) {
	const qsize, seg = 8, 64
	pool := bufpool.New()
	r, err := NewRing(qsize, seg, pool)
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
	segs := func(n int) int { return (n + seg - 1) / seg }

	add := func(outLen, inLen int) {
		seq++
		out := pattern(seq, outLen)
		n := segs(outLen) + segs(inLen)
		head, err := r.Add(out, inLen)
		var want error
		switch {
		case n == 0:
			want = ErrEmptyRequest
		case n > qsize:
			want = ErrTooLarge
		case n > free:
			want = ErrRingFull
		}
		if err != want {
			t.Fatalf("Add(%d, %d) with %d free: err %v, want %v", outLen, inLen, free, err, want)
		}
		if err != nil {
			return
		}
		if _, dup := reqs[head]; dup {
			t.Fatalf("Add returned head %d, which is in flight", head)
		}
		reqs[head] = refReq{out: out, inLen: inLen, segs: n}
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
		if c.Head != avail[0] || !bytes.Equal(c.Out, want.out) || c.InCapacity() != want.inLen {
			t.Fatalf("popped head %d (%d out bytes, capacity %d), want head %d (%d, %d)",
				c.Head, len(c.Out), c.InCapacity(), avail[0], len(want.out), want.inLen)
		}
		avail = avail[1:]
		held = append(held, c)
	}
	push := func(i, n int) {
		c := held[i]
		held = append(held[:i], held[i+1:]...)
		seq++
		data := pattern(seq, n)
		written := min(n, reqs[c.Head].inLen)
		if got := r.Push(c, data); got != written {
			t.Fatalf("Push of %d bytes into capacity %d wrote %d", n, reqs[c.Head].inLen, got)
		}
		used = append(used, refUsed{c.Head, data[:written]})
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
			if comp.Head != u.head || !bytes.Equal(comp.In, u.in) {
				t.Fatalf("reaped head %d with %x, want head %d with %x", comp.Head, comp.In, u.head, u.in)
			}
			free += reqs[u.head].segs
			delete(reqs, u.head)
		}
	}

	for len(prog) > 0 {
		switch arg() % 4 {
		case 0:
			add(arg()*2, arg()*2)
		case 1:
			pop()
		case 2:
			if len(held) > 0 {
				push(arg()%len(held), arg()*2)
			}
		case 3:
			reap(arg() % 4)
		}
		if r.FreeDescriptors() != free || r.InFlight() != len(reqs) {
			t.Fatalf("%d free, %d in flight; want %d, %d", r.FreeDescriptors(), r.InFlight(), free, len(reqs))
		}
		checkRingMemory(t, r, pool)
	}

	// Quiescence: serve and reap everything still in the ring.
	for len(avail) > 0 {
		pop()
	}
	for len(held) > 0 {
		push(0, seg)
	}
	reap(0)
	checkRingMemory(t, r, pool)
	if r.FreeDescriptors() != qsize || r.InFlight() != 0 || pool.Stats.Gets != pool.Stats.Puts {
		t.Fatalf("quiescent ring: %d free, %d in flight, pool gets %d puts %d",
			r.FreeDescriptors(), r.InFlight(), pool.Stats.Gets, pool.Stats.Puts)
	}
}

// FuzzRingOps checks random Add/PopInto/Push/ReapInto sequences against a
// byte-level reference and the ring's memory contract. The seed corpus runs
// under plain go test.
func FuzzRingOps(f *testing.F) {
	f.Add([]byte{})
	// One request out and back; then a chain too large, and an empty one.
	f.Add([]byte{0, 50, 20, 1, 2, 0, 30, 3, 0, 0, 255, 255, 0, 0, 0})
	// Fill the ring, serve out of order, reap a few at a time.
	f.Add([]byte{0, 40, 0, 0, 40, 0, 0, 40, 40, 0, 60, 10, 1, 1, 1, 1,
		2, 2, 90, 2, 0, 10, 3, 1, 2, 0, 0, 3, 2, 2, 0, 5, 3, 0})
	// Held chains across wraparound.
	prog := make([]byte, 0, 600)
	for i := 0; i < 100; i++ {
		prog = append(prog, 0, byte(i*13), byte(i*29), 1, 2, byte(i), byte(i*41), 3, byte(i))
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
// reports ErrBadChain, and InCapacity, Push and ReapInto of a chain the
// device already holds return. The reap leaves the ring sound: its free
// list holds each descriptor once and none in flight, and once the ring
// drains every descriptor is free, every slab is back in the pool, and Add
// hands out each descriptor once.
func TestRingCorruptChainStops(t *testing.T) {
	const qsize, seg = 8, 64
	loop := func(r *Ring, from, to uint16) {
		l, flags, _ := r.readDesc(from)
		r.writeDesc(from, l, flags|descFlagNext, to)
	}

	r := mustRing(t, qsize, seg)
	head, _ := r.Add([]byte("req"), 200)
	ds := descs(r, head)
	loop(r, ds[len(ds)-1], ds[0])
	var c Chain
	if ok, err := r.PopInto(&c); ok || err != ErrBadChain {
		t.Errorf("PopInto of a cyclic chain: %v, %v; want ErrBadChain", ok, err)
	}

	for _, cycle := range []string{"in descriptors", "head to itself"} {
		r := mustRing(t, qsize, seg)
		head, _ := r.Add([]byte("req"), 200)
		var c Chain
		if ok, err := r.PopInto(&c); !ok || err != nil {
			t.Fatalf("PopInto: %v, %v", ok, err)
		}
		// other stays in flight across the corrupt reap, so the ring has
		// not drained when its free list is checked.
		other, _ := r.Add([]byte("other"), 0)
		ds := descs(r, head)
		if cycle == "in descriptors" {
			loop(r, ds[len(ds)-1], ds[1])
		} else {
			loop(r, head, head)
		}
		if n := c.InCapacity(); n > qsize*seg {
			t.Errorf("%s: InCapacity %d beyond %d descriptors", cycle, n, qsize)
		}
		if n := r.Push(c, make([]byte, 4*qsize*seg)); n > qsize*seg {
			t.Errorf("%s: Push wrote %d bytes beyond %d descriptors", cycle, n, qsize)
		}
		if n := r.ReapInto(&ReapBatch{}, 0); n != 1 {
			t.Errorf("%s: reaped %d, want 1", cycle, n)
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
		r.Push(oc, nil)
		if n := r.ReapInto(&ReapBatch{}, 0); n != 1 {
			t.Errorf("%s: reaped %d of the other request, want 1", cycle, n)
		}
		if n := r.FreeDescriptors(); n != r.QueueSize() {
			t.Errorf("%s: %d descriptors free after the reap, want %d", cycle, n, r.QueueSize())
		}
		if s := r.pool.Stats; s.Gets != s.Puts {
			t.Errorf("%s: pool lent %d slabs and got %d back", cycle, s.Gets, s.Puts)
		}
		heads := map[uint16]bool{}
		for i := 0; i < qsize; i++ {
			h, err := r.Add([]byte("x"), 0)
			if err != nil || heads[h] {
				t.Errorf("%s: one-descriptor Add %d: head %d, %v; want a fresh head", cycle, i, h, err)
				break
			}
			heads[h] = true
		}
	}
}

// roundTrip posts a 100-byte request with room for a 2 KiB response, serves
// it and reaps it.
func roundTrip(r *Ring, c *Chain, b *ReapBatch, req, resp []byte) {
	if _, err := r.Add(req, len(resp)); err != nil {
		panic(err)
	}
	if ok, err := r.PopInto(c); !ok || err != nil {
		panic("PopInto found no request")
	}
	r.Push(*c, resp)
	r.ReapInto(b, 0)
}

// Once the pool holds the slabs a request needs, a round trip through the
// ring allocates nothing.
func TestRingSteadyStateZeroAlloc(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	r := mustRing(t, 256, 2048)
	var c Chain
	var b ReapBatch
	req, resp := pattern(1, 100), pattern(2, 2048)
	roundTrip(r, &c, &b, req, resp)
	allocs := testing.AllocsPerRun(100, func() { roundTrip(r, &c, &b, req, resp) })
	if allocs != 0 {
		t.Errorf("%v allocs per round trip, want 0", allocs)
	}
	if !bytes.Equal(b.Completions[0].In, resp) {
		t.Error("round trip corrupted the response")
	}
}

// BenchmarkRingRoundTrip reports the host cost of one request through the
// ring: Add, PopInto, Push and ReapInto.
func BenchmarkRingRoundTrip(b *testing.B) {
	r, err := NewRing(256, 2048, bufpool.New())
	if err != nil {
		b.Fatal(err)
	}
	var c Chain
	var batch ReapBatch
	req, resp := pattern(1, 100), pattern(2, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		roundTrip(r, &c, &batch, req, resp)
	}
}
