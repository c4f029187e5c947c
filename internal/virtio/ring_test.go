package virtio

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"vrio/internal/sim"
)

func mustRing(t *testing.T, qsize int) *Ring {
	t.Helper()
	r, err := NewRing(qsize)
	if err != nil {
		t.Fatalf("NewRing(%d): %v", qsize, err)
	}
	return r
}

// reap harvests at most max completions (all if max <= 0) into a fresh
// batch, so the returned slice outlives later reaps.
func reap(r *Ring, max int) []Completion {
	var b ReapBatch
	r.ReapInto(&b, max)
	return b.Completions
}

// bufs is the out-buffer list of a request.
func bufs(b ...[]byte) [][]byte { return b }

// in1 returns the one reply buffer of a completion whose chain reserved one
// writable descriptor, nil when the device wrote none.
func in1(c Completion) []byte {
	if len(c.In) == 0 {
		return nil
	}
	return c.In[0]
}

func TestNewRingValidation(t *testing.T) {
	for _, q := range []int{0, 1, 3, 65536, -4} {
		if _, err := NewRing(q); err == nil {
			t.Errorf("NewRing(%d) accepted", q)
		}
	}
	for _, q := range []int{2, 256, 32768} {
		if _, err := NewRing(q); err != nil {
			t.Errorf("NewRing(%d) rejected: %v", q, err)
		}
	}
}

func TestRingEchoSingleSegment(t *testing.T) {
	r := mustRing(t, 16)
	msg := []byte("hello from the guest")
	head, err := r.Add(bufs(msg), 64)
	if err != nil {
		t.Fatal(err)
	}

	var c Chain
	ok, err := r.PopInto(&c)
	if err != nil || !ok {
		t.Fatalf("PopInto: ok=%v err=%v", ok, err)
	}
	if c.Head != head {
		t.Errorf("chain head %d, want %d", c.Head, head)
	}
	if len(c.Out) != 1 || !bytes.Equal(c.Out[0], msg) {
		t.Errorf("device saw %q, want [%q]", c.Out, msg)
	}

	reply := []byte("response")
	if n := r.Push(c, reply); n != len(reply) {
		t.Errorf("Push wrote %d, want %d", n, len(reply))
	}

	comps := reap(r, 0)
	if len(comps) != 1 {
		t.Fatalf("reap returned %d completions", len(comps))
	}
	if comps[0].Head != head {
		t.Errorf("completion head %d, want %d", comps[0].Head, head)
	}
	if !bytes.Equal(in1(comps[0]), reply) {
		t.Errorf("driver saw reply %q, want %q", in1(comps[0]), reply)
	}
	if r.FreeDescriptors() != 16 {
		t.Errorf("descriptors leaked: %d free, want 16", r.FreeDescriptors())
	}
}

// A chain carries one descriptor per buffer: a block write's header,
// payload and trailer arrive at the device as three buffers, in order.
func TestRingMultiSegmentChain(t *testing.T) {
	r := mustRing(t, 64)
	hdr, trailer := []byte("header"), []byte{9}
	msg := bytes.Repeat([]byte{0xAB}, 4096)
	msg[0], msg[4095] = 1, 2
	if _, err := r.Add(bufs(hdr, msg, trailer), 100); err != nil {
		t.Fatal(err)
	}
	if free := r.FreeDescriptors(); free != 64-4 {
		t.Errorf("free = %d, want %d", free, 64-4)
	}
	var c Chain
	ok, err := r.PopInto(&c)
	if err != nil || !ok {
		t.Fatalf("PopInto: %v %v", ok, err)
	}
	if len(c.Out) != 3 || !bytes.Equal(c.Out[0], hdr) || !bytes.Equal(c.Out[1], msg) || !bytes.Equal(c.Out[2], trailer) {
		t.Errorf("device saw %d buffers, want header, payload and trailer in order", len(c.Out))
	}
	reply := bytes.Repeat([]byte{7}, 100)
	r.Push(c, reply)
	comps := reap(r, 0)
	if len(comps) != 1 || !bytes.Equal(in1(comps[0]), reply) {
		t.Error("multi-descriptor reply corrupted")
	}
	if r.FreeDescriptors() != 64 {
		t.Errorf("descriptors leaked: %d free, want 64", r.FreeDescriptors())
	}
}

// A reply longer than the reservation is cut to it; the driver still gets
// the whole slab, so it can release it.
func TestRingPushTruncatesToCapacity(t *testing.T) {
	r := mustRing(t, 16)
	if _, err := r.Add(bufs([]byte("req")), 10); err != nil {
		t.Fatal(err)
	}
	var c Chain
	r.PopInto(&c)
	reply := bytes.Repeat([]byte{1}, 100)
	n := r.Push(c, reply)
	if n != 10 {
		t.Errorf("Push wrote %d, want truncation to 10", n)
	}
	comps := reap(r, 0)
	if in := in1(comps[0]); len(in) != 10 || cap(in) != cap(reply) {
		t.Errorf("driver got %d bytes of a %d-byte slab, want 10 of %d", len(in), cap(in), cap(reply))
	}
}

func TestRingOutOnlyAndInOnly(t *testing.T) {
	r := mustRing(t, 16)
	// Out-only (e.g. a net transmit): a reply pushed to it has nowhere to go.
	if _, err := r.Add(bufs([]byte("tx"))); err != nil {
		t.Fatal(err)
	}
	var c Chain
	r.PopInto(&c)
	if len(c.Out) != 1 || string(c.Out[0]) != "tx" {
		t.Error("out-only chain wrong")
	}
	if n := r.Push(c, []byte("stray")); n != 0 {
		t.Errorf("Push into an out-only chain wrote %d bytes", n)
	}
	if comps := reap(r, 0); len(comps) != 1 || len(comps[0].In) != 0 {
		t.Errorf("out-only completion = %+v, want no reply", comps)
	}

	// In-only (e.g. posting an rx buffer).
	if _, err := r.Add(nil, 100); err != nil {
		t.Fatal(err)
	}
	r.PopInto(&c)
	if len(c.Out) != 0 {
		t.Error("in-only chain wrong")
	}
	r.Push(c, []byte("rx data"))
	comps := reap(r, 0)
	if string(in1(comps[0])) != "rx data" {
		t.Errorf("rx data = %q", in1(comps[0]))
	}
}

// A request with no buffers, or with an empty one, or reserving an empty
// reply buffer, is refused and takes no descriptor.
func TestRingEmptyRequestRejected(t *testing.T) {
	r := mustRing(t, 16)
	for _, out := range [][][]byte{nil, bufs([]byte("a"), nil), bufs([]byte{})} {
		if _, err := r.Add(out, 8*len(out)); err != ErrEmptyRequest {
			t.Errorf("Add of %d buffers: err = %v, want ErrEmptyRequest", len(out), err)
		}
	}
	for _, in := range [][]int{{0}, {8, 0}, {-1, 1}} {
		if _, err := r.Add(bufs([]byte("a")), in...); err != ErrEmptyRequest {
			t.Errorf("Add reserving %v: err = %v, want ErrEmptyRequest", in, err)
		}
	}
	if r.FreeDescriptors() != 16 || r.inFlight != 0 {
		t.Errorf("%d free, %d in flight after refused requests", r.FreeDescriptors(), r.inFlight)
	}
}

func TestRingFullBehaviour(t *testing.T) {
	r := mustRing(t, 4)
	for i := 0; i < 4; i++ {
		if _, err := r.Add(bufs([]byte{byte(i)})); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	if _, err := r.Add(bufs([]byte{9})); err != ErrRingFull {
		t.Errorf("err = %v, want ErrRingFull", err)
	}
	// Device drains one; driver can post again.
	var c Chain
	r.PopInto(&c)
	r.Push(c)
	reap(r, 0)
	if _, err := r.Add(bufs([]byte{9})); err != nil {
		t.Errorf("Add after drain: %v", err)
	}
}

// A device that holds requests across asynchronous completions pops each
// into a chain of its own; held chains stay intact while later pops fill
// others, and complete in any order.
func TestRingHeldChainsAreIndependent(t *testing.T) {
	r := mustRing(t, 16)
	var held [3]Chain
	for i := range held {
		if _, err := r.Add(bufs(bytes.Repeat([]byte{byte(i + 1)}, 100)), 4); err != nil {
			t.Fatal(err)
		}
		if ok, err := r.PopInto(&held[i]); !ok || err != nil {
			t.Fatalf("PopInto %d: %v %v", i, ok, err)
		}
	}
	for i := len(held) - 1; i >= 0; i-- {
		if !bytes.Equal(held[i].Out[0], bytes.Repeat([]byte{byte(i + 1)}, 100)) {
			t.Fatalf("held chain %d clobbered", i)
		}
		r.Push(held[i], []byte{byte(i + 1)})
	}
	comps := reap(r, 0)
	for k, comp := range comps {
		i := len(held) - 1 - k
		if comp.Head != held[i].Head || !bytes.Equal(in1(comp), []byte{byte(i + 1)}) {
			t.Fatalf("completion %d: head %d reply %v, want head %d reply [%d]", k, comp.Head, in1(comp), held[i].Head, i+1)
		}
	}
	if r.FreeDescriptors() != 16 {
		t.Errorf("descriptors leaked: %d free, want 16", r.FreeDescriptors())
	}
}

// A request needing more descriptors than the ring has is refused outright
// (a full ring would never take it).
func TestRingTooLargeRejected(t *testing.T) {
	r := mustRing(t, 4)
	b := []byte{1}
	if _, err := r.Add(bufs(b, b, b, b), 8); err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestRingPopEmptyRing(t *testing.T) {
	r := mustRing(t, 16)
	var c Chain
	if ok, err := r.PopInto(&c); ok || err != nil {
		t.Errorf("PopInto on empty: ok=%v err=%v", ok, err)
	}
	if r.HasAvail() {
		t.Error("HasAvail on empty ring")
	}
}

func TestRingOrderPreserved(t *testing.T) {
	r := mustRing(t, 64)
	const n = 20
	heads := make([]uint16, n)
	for i := 0; i < n; i++ {
		h, err := r.Add(bufs([]byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		heads[i] = h
	}
	var c Chain // one chain, reused: each is pushed before the next pop
	for i := 0; i < n; i++ {
		ok, err := r.PopInto(&c)
		if !ok || err != nil {
			t.Fatalf("PopInto %d: %v %v", i, ok, err)
		}
		if c.Head != heads[i] {
			t.Fatalf("Pop %d returned head %d, want %d (FIFO violated)", i, c.Head, heads[i])
		}
		if c.Out[0][0] != byte(i) {
			t.Fatalf("Pop %d returned payload %d", i, c.Out[0][0])
		}
		r.Push(c)
	}
	comps := reap(r, 0)
	for i, comp := range comps {
		if comp.Head != heads[i] {
			t.Fatalf("reap %d returned head %d, want %d", i, comp.Head, heads[i])
		}
	}
}

func TestRingReapMax(t *testing.T) {
	r := mustRing(t, 64)
	for i := 0; i < 5; i++ {
		if _, err := r.Add(bufs([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	var c Chain
	for i := 0; i < 5; i++ {
		r.PopInto(&c)
		r.Push(c)
	}
	if got := len(reap(r, 2)); got != 2 {
		t.Errorf("reap(2) returned %d", got)
	}
	if got := len(reap(r, 0)); got != 3 {
		t.Errorf("reap(0) returned %d, want remaining 3", got)
	}
}

func TestRingIndexWraparound(t *testing.T) {
	r := mustRing(t, 4)
	// Push enough traffic through to wrap the 16-bit indices many times
	// relative to qsize and ensure nothing corrupts.
	var c Chain
	for i := 0; i < 10000; i++ {
		msg := []byte{byte(i), byte(i >> 8)}
		if _, err := r.Add(bufs(msg), 8); err != nil {
			t.Fatal(err)
		}
		ok, err := r.PopInto(&c)
		if !ok || err != nil {
			t.Fatalf("iter %d: PopInto %v %v", i, ok, err)
		}
		if !bytes.Equal(c.Out[0], msg) {
			t.Fatalf("iter %d: corrupt request", i)
		}
		r.Push(c, []byte{c.Out[0][0]})
		comps := reap(r, 0)
		if len(comps) != 1 || in1(comps[0])[0] != byte(i) {
			t.Fatalf("iter %d: corrupt completion", i)
		}
	}
	if r.inFlight != 0 || r.FreeDescriptors() != r.QueueSize() {
		t.Errorf("InFlight=%d free=%d, want 0 and %d", r.inFlight, r.FreeDescriptors(), r.QueueSize())
	}
}

func TestRingInFlight(t *testing.T) {
	r := mustRing(t, 16)
	r.Add(bufs([]byte{1}))
	r.Add(bufs([]byte{2}))
	if r.inFlight != 2 {
		t.Errorf("InFlight = %d, want 2", r.inFlight)
	}
	var c Chain
	r.PopInto(&c)
	r.Push(c)
	reap(r, 0)
	if r.inFlight != 1 {
		t.Errorf("InFlight = %d, want 1", r.inFlight)
	}
}

// A used entry naming a head the driver never posted — free, or beyond the
// queue size — is a device protocol bug and panics.
func TestRingReapUnknownHeadPanics(t *testing.T) {
	for _, id := range []uint32{5, 16, 1000} {
		r := mustRing(t, 16)
		r.Add(bufs([]byte{1}))
		r.setUsedEntry(r.usedIdx(), id, 0)
		r.setUsedIdx(r.usedIdx() + 1)
		func() {
			defer func() {
				want := fmt.Sprintf("virtio: used entry for unknown head %d", id)
				if got := recover(); got != want {
					t.Errorf("head %d: recovered %v, want %q", id, got, want)
				}
			}()
			reap(r, 0)
		}()
	}
}

// Property: echoing arbitrary payloads through the ring — the device
// pushes back the very buffer it was handed — preserves bytes and never
// leaks descriptors.
func TestRingEchoProperty(t *testing.T) {
	r := mustRing(t, 256)
	var c Chain
	f := func(payload []byte, inLen uint16) bool {
		in := int(inLen % 2048)
		if len(payload) == 0 || in == 0 {
			return true
		}
		want := bytes.Clone(payload[:min(len(payload), in)])
		before := r.FreeDescriptors()
		if _, err := r.Add(bufs(payload), in); err != nil {
			return false
		}
		if ok, err := r.PopInto(&c); !ok || err != nil {
			return false
		}
		if len(c.Out) != 1 || !bytes.Equal(c.Out[0], payload) {
			return false
		}
		r.Push(c, c.Out[0])
		comps := reap(r, 0)
		if len(comps) != 1 || !bytes.Equal(in1(comps[0]), want) {
			return false
		}
		return r.FreeDescriptors() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// The ring is the mechanism Elvis polls; verify that the poll predicate is
// cheap and correct across a simulated polling loop.
func TestRingPollLoopSimulation(t *testing.T) {
	r := mustRing(t, 16)
	e := sim.NewEngine()
	served := 0
	// Guest posts 5 requests at t=10,20,...
	for i := 1; i <= 5; i++ {
		e.At(sim.Time(i*10), func() {
			if _, err := r.Add(bufs([]byte("req")), 4); err != nil {
				t.Errorf("Add: %v", err)
			}
		})
	}
	// Sidecore polls every 3ns.
	var c Chain
	stop := e.Ticker(3, func() {
		for r.HasAvail() {
			ok, err := r.PopInto(&c)
			if !ok || err != nil {
				t.Fatalf("PopInto: %v %v", ok, err)
			}
			r.Push(c, []byte("ok"))
			served++
		}
	})
	e.RunUntil(100)
	stop()
	if served != 5 {
		t.Errorf("poll loop served %d, want 5", served)
	}
	if got := len(reap(r, 0)); got != 5 {
		t.Errorf("driver reaped %d, want 5", got)
	}
}
