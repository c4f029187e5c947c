package transport

import (
	"bytes"
	"errors"
	"testing"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/link"
	"vrio/internal/sim"
)

// These tests exercise the §4.5 retransmission machinery over the REAL
// datapath — pooled NIC rings, wire serialization, FCS checks — by
// attaching fault injectors directly to the rig's cable, instead of the
// synthetic fabric the unit tests use.

// frameScript is a per-frame TxFault driven by the frame's arrival index.
type frameScript struct {
	n  int
	fn func(i int, frame []byte) link.FaultVerdict
}

func (s *frameScript) Apply(frame []byte) link.FaultVerdict {
	v := s.fn(s.n, frame)
	s.n++
	return v
}

// dropAll loses every frame on the wire.
func dropAll() link.TxFault {
	return &frameScript{fn: func(int, []byte) link.FaultVerdict {
		return link.FaultVerdict{Action: link.FaultDrop}
	}}
}

// delayFrame adds extra in-flight delay to frame idx only.
func delayFrame(idx int, extra sim.Time) link.TxFault {
	return &frameScript{fn: func(i int, _ []byte) link.FaultVerdict {
		if i == idx {
			return link.FaultVerdict{Extra: extra}
		}
		return link.FaultVerdict{}
	}}
}

// TestRigMaxRetransmitsExhaustion: with the client->host wire eating every
// frame, the driver retransmits on the doubling timeout until the budget is
// spent, then raises exactly one device error to the guest.
func TestRigMaxRetransmitsExhaustion(t *testing.T) {
	r := NewRigConfig(Config{MaxRetransmits: 3})
	r.Cable.AtoB.SetFault(dropAll())

	calls := 0
	var gotErr error
	r.Driver.SendBlkQ(2, 1, 0, []byte("doomed"), func(resp []byte, err error) {
		calls++
		gotErr = err
	})
	r.Step()

	if calls != 1 {
		t.Fatalf("completion ran %d times, want exactly 1", calls)
	}
	if !errors.Is(gotErr, ErrDeviceError) {
		t.Errorf("err = %v, want ErrDeviceError", gotErr)
	}
	if rt := r.Driver.Counters.Get("retransmits"); rt != 3 {
		t.Errorf("retransmits = %d, want 3 (the budget)", rt)
	}
	if de := r.Driver.Counters.Get("device_errors"); de != 1 {
		t.Errorf("device_errors = %d, want 1", de)
	}
	if r.Driver.InFlightBlk() != 0 {
		t.Error("failed request still pending")
	}
	// 10+20+40+80 ms: the initial attempt plus three doubled retries.
	if now := r.Eng.Now(); now < 150*sim.Millisecond || now > 151*sim.Millisecond {
		t.Errorf("gave up at %v, want just past 150ms (10+20+40+80 doubling)", now)
	}
	// Every attempt died on the wire, accounted as injected drops.
	if d := r.Cable.AtoB.Drops.Get(link.DropInjected); d != 4 {
		t.Errorf("injected drops = %d, want 4 (initial + 3 retries)", d)
	}
}

// TestRigStaleLateRetransmittedResponse: the first response is jittered past
// the retransmit timeout, so the driver retransmits and the endpoint serves
// twice. The fresh response completes the request; the late original arrives
// afterwards under a superseded ReqID and must be discarded as stale.
func TestRigStaleLateRetransmittedResponse(t *testing.T) {
	r := NewRig()
	r.Cable.BtoA.SetFault(delayFrame(0, r.P.RetransmitTimeout+2*sim.Millisecond))

	calls := 0
	r.Driver.SendBlkQ(2, 1, 0, []byte("late"), func(resp []byte, err error) {
		calls++
		if err != nil || string(resp) != "late" {
			t.Errorf("resp=%q err=%v", resp, err)
		}
	})
	r.Step()

	if calls != 1 {
		t.Fatalf("completion ran %d times, want exactly 1", calls)
	}
	if rt := r.Driver.Counters.Get("retransmits"); rt != 1 {
		t.Errorf("retransmits = %d, want 1", rt)
	}
	if st := r.Driver.Counters.Get("stale"); st != 1 {
		t.Errorf("stale = %d, want 1 (the late first response)", st)
	}
	if r.Driver.InFlightBlk() != 0 {
		t.Error("request still pending")
	}
}

// TestRigOutOfOrderChunkReassembly: a multi-chunk request whose first chunk
// is delayed on the wire arrives 1,2,3,4,0 at the endpoint; reassembly must
// still produce the original payload, with no retransmission needed.
func TestRigOutOfOrderChunkReassembly(t *testing.T) {
	r := NewRigConfig(Config{MaxChunk: 1000})
	// 2µs is far below the 10ms retransmit timeout but well above the
	// back-to-back serialization gap, so chunk 0 arrives last.
	r.Cable.AtoB.SetFault(delayFrame(0, 2*sim.Microsecond))

	req := make([]byte, 4500) // 5 chunks of <=1000B, each its own frame
	for i := range req {
		req[i] = byte(i * 13)
	}
	var got []byte
	calls := 0
	r.Driver.SendBlkQ(2, 1, 0, req, func(resp []byte, err error) {
		calls++
		if err != nil {
			t.Errorf("err: %v", err)
		}
		got = append([]byte{}, resp...)
	})
	r.Step()

	if calls != 1 {
		t.Fatalf("completion ran %d times, want exactly 1", calls)
	}
	if !bytes.Equal(got, req) {
		t.Fatal("out-of-order chunks reassembled to the wrong payload")
	}
	if rt := r.Driver.Counters.Get("retransmits"); rt != 0 {
		t.Errorf("retransmits = %d, want 0 (reordering is not loss)", rt)
	}
	if r.Endpoint.PendingRequests() != 0 {
		t.Error("endpoint leaked a partial assembly")
	}
}

// TestRigCorruptionTriggersRetransmit: a request frame corrupted in flight
// dies at the FCS check and never reaches the endpoint; the driver recovers
// it by retransmission exactly as if it were lost.
func TestRigCorruptionTriggersRetransmit(t *testing.T) {
	r := NewRig()
	r.Cable.AtoB.SetFault(&frameScript{fn: func(i int, frame []byte) link.FaultVerdict {
		if i == 0 {
			frame[len(frame)/2] ^= 0x40
			return link.FaultVerdict{Action: link.FaultCorrupt}
		}
		return link.FaultVerdict{}
	}})

	calls := 0
	r.Driver.SendBlkQ(2, 1, 0, []byte("bitrot"), func(resp []byte, err error) {
		calls++
		if err != nil || string(resp) != "bitrot" {
			t.Errorf("resp=%q err=%v", resp, err)
		}
	})
	r.Step()

	if calls != 1 {
		t.Fatalf("completion ran %d times, want exactly 1", calls)
	}
	if d := r.Cable.AtoB.Drops.Get(link.DropCorruptFCS); d != 1 {
		t.Errorf("corrupt_fcs drops = %d, want 1", d)
	}
	if rt := r.Driver.Counters.Get("retransmits"); rt != 1 {
		t.Errorf("retransmits = %d, want 1", rt)
	}
}

// A block reply gathered from its parts — the status, a volume read's
// version, the data — puts the same bytes on the wire as the reply in one
// contiguous buffer, whole and chunked across part boundaries alike.
func TestRespondBlkGatherKeepsWireBytes(t *testing.T) {
	data := bytes.Repeat([]byte{0x5A, 0xA5, 0x0F}, 1400)
	status, version := []byte{0}, []byte{1, 2, 3, 4, 5, 6, 7, 8}
	whole := append(append(append([]byte(nil), status...), version...), data...)
	for _, maxChunk := range []int{0, 1000} {
		wire := func(gather bool) [][]byte {
			r := NewRigConfig(Config{MaxChunk: maxChunk})
			var frames [][]byte
			r.Cable.BtoA.SetFault(&frameScript{fn: func(_ int, f []byte) link.FaultVerdict {
				frames = append(frames, bytes.Clone(f))
				return link.FaultVerdict{}
			}})
			r.Endpoint.BlkReq = func(src ethernet.MAC, h Header, req *bufpool.Frame) {
				if gather {
					r.Endpoint.RespondBlk(src, h, status, version, data)
				} else {
					r.Endpoint.RespondBlk(src, h, whole)
				}
				req.Release()
			}
			var got []byte
			r.Driver.SendBlkQ(2, 1, 0, []byte("read"), func(resp []byte, err error) {
				if err != nil {
					t.Fatal(err)
				}
				got = bytes.Clone(resp)
			})
			r.Step()
			if !bytes.Equal(got, whole) {
				t.Fatalf("max chunk %d, gather %v: the driver got %d bytes, want the %d-byte reply", maxChunk, gather, len(got), len(whole))
			}
			return frames
		}
		a, b := wire(false), wire(true)
		want := 1
		if maxChunk > 0 {
			want = (len(whole) + maxChunk - 1) / maxChunk
		}
		if len(a) != want || len(b) != want {
			t.Fatalf("max chunk %d: %d frames from one buffer, %d gathered; want %d", maxChunk, len(a), len(b), want)
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("max chunk %d: wire frame %d differs", maxChunk, i)
			}
		}
	}
}
