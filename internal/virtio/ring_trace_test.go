package virtio

import (
	"testing"

	"vrio/internal/sim"
	"vrio/internal/trace"
)

// TestRingTraceSpans exercises the ring's guest_ring instrumentation: one
// span per request, opened at Add and closed at ReapInto, carrying the chain
// head as the correlation arg.
func TestRingTraceSpans(t *testing.T) {
	e := sim.NewEngine()
	r, err := NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	r.Tracer = trace.New(e)
	r.SpanName = "net-tx"

	head, err := r.Add([][]byte{[]byte("frame")})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Tracer.NumSpans(); got != 1 {
		t.Fatalf("spans after Add = %d, want 1", got)
	}
	e.At(500, func() {
		var c Chain
		if ok, err := r.PopInto(&c); err != nil || !ok {
			t.Fatalf("PopInto = %v, %v", ok, err)
		}
		r.Push(c)
	})
	e.At(700, func() {
		if got := reap(r, 0); len(got) != 1 || got[0].Head != head {
			t.Fatalf("reap = %+v", got)
		}
	})
	e.Run()

	s := r.Tracer.Spans()[0]
	if s.Cat != trace.CatGuestRing || s.Name != "net-tx" || s.Arg != uint64(head) {
		t.Errorf("span = %+v", s)
	}
	if s.Start != 0 || s.End != 700 {
		t.Errorf("span interval = [%d, %d], want [0, 700]", s.Start, s.End)
	}
	if r.Tracer.OpenSpans() != 0 {
		t.Errorf("open spans = %d", r.Tracer.OpenSpans())
	}
}

// TestRingNilTracerUntouched pins that an untraced ring records nothing and
// pays nothing (no panic on the nil path either).
func TestRingNilTracerUntouched(t *testing.T) {
	r, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add([][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	var c Chain
	if ok, _ := r.PopInto(&c); !ok {
		t.Fatal("PopInto found nothing")
	}
	r.Push(c)
	if got := reap(r, 0); len(got) != 1 {
		t.Fatalf("reap = %+v", got)
	}
	if r.Tracer.NumSpans() != 0 {
		t.Error("nil tracer recorded spans")
	}
}
