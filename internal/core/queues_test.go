package core

import (
	"bytes"
	"testing"
)

// The host fills guest rx buffers oldest first and the guest restocks what
// it reaps. Frames must come back in delivery order, a burst past the free
// buffers must drop exactly the excess, and every reaped buffer must return
// to the free list.
func TestNetQueuesRxFreeListCycles(t *testing.T) {
	q := newNetQueues()
	if q.rxFree.Len() != rxBuffers {
		t.Fatalf("stocked %d rx buffers, want %d", q.rxFree.Len(), rxBuffers)
	}
	frame := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 60+i%7) }
	for round := 0; round < 50; round++ {
		burst := 1 + round*7%(rxBuffers+20)
		for i := 0; i < burst; i++ {
			q.hostDeliver(frame(round + i))
		}
		if want := uint64(max(0, burst-rxBuffers)); q.RxDrops != want {
			t.Fatalf("round %d: %d drops after a burst of %d, want %d", round, q.RxDrops, burst, want)
		}
		q.RxDrops = 0
		got := q.guestReapRx()
		if len(got) != min(burst, rxBuffers) {
			t.Fatalf("round %d: reaped %d frames, want %d", round, len(got), min(burst, rxBuffers))
		}
		for i, c := range got {
			if len(c.In) != 1 || !bytes.Equal(c.In[0], frame(round+i)) {
				t.Fatalf("round %d: frame %d out of order", round, i)
			}
		}
		if q.rxFree.Len() != rxBuffers {
			t.Fatalf("round %d: %d free rx buffers after restock, want %d", round, q.rxFree.Len(), rxBuffers)
		}
	}
}

// Delivering a frame and reaping it restocks its rx buffer in place: the
// datapath's receive loop allocates nothing once the queues are built.
func TestNetQueuesRxRestockZeroAlloc(t *testing.T) {
	q := newNetQueues()
	frame := make([]byte, 64)
	cycle := func() {
		for i := 0; i < 4; i++ {
			q.hostDeliver(frame)
		}
		if got := q.guestReapRx(); len(got) != 4 {
			t.Fatalf("reaped %d frames, want 4", len(got))
		}
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("deliver, reap and restock: %v allocs/op, want 0", n)
	}
	if q.rxFree.Len() != rxBuffers || q.RxDrops != 0 {
		t.Errorf("%d free rx buffers and %d drops, want %d and 0", q.rxFree.Len(), q.RxDrops, rxBuffers)
	}
}
