package ethernet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func reassembleAll(t *testing.T, r *Reassembler, src MAC, frames [][]byte) *Message {
	t.Helper()
	var msg *Message
	for i, fr := range frames {
		m, err := r.Add(src, fr)
		if err != nil {
			t.Fatalf("Add fragment %d: %v", i, err)
		}
		if m != nil {
			if msg != nil {
				t.Fatal("message completed twice")
			}
			msg = m
		}
	}
	return msg
}

func TestReassemblerSingleFragment(t *testing.T) {
	r := NewReassembler(0)
	src := NewMAC(1)
	frames, _ := segment(42, 7, []byte("short"), 1500)
	msg := reassembleAll(t, r, src, frames)
	if msg == nil {
		t.Fatal("message did not complete")
	}
	if string(msg.Data) != "short" || msg.MsgID != 42 || msg.DeviceID != 7 || msg.Src != src {
		t.Errorf("message = %+v", msg)
	}
	if !msg.ZeroCopy || msg.Fragments != 1 {
		t.Errorf("ZeroCopy=%v Fragments=%d", msg.ZeroCopy, msg.Fragments)
	}
	if len(r.partial) != 0 {
		t.Errorf("%d partials pending after completion", len(r.partial))
	}
}

func TestReassemblerMultiFragment64K(t *testing.T) {
	r := NewReassembler(0)
	src := NewMAC(2)
	data := make([]byte, MaxMessage)
	for i := range data {
		data[i] = byte(i * 31)
	}
	frames, _ := segment(100, 1, data, 8100)
	msg := reassembleAll(t, r, src, frames)
	if msg == nil {
		t.Fatal("64KiB message did not complete")
	}
	if !bytes.Equal(msg.Data, data) {
		t.Error("reassembled data corrupted")
	}
	if !msg.ZeroCopy {
		t.Error("MTU-8100 64KiB message should be zero-copy (17 pages)")
	}
	if msg.Fragments != 9 {
		t.Errorf("Fragments = %d, want 9", msg.Fragments)
	}
}

func TestReassemblerMTU9000BreaksZeroCopy(t *testing.T) {
	r := NewReassembler(0)
	src := NewMAC(3)
	data := make([]byte, MaxMessage)
	frames, _ := segment(101, 1, data, 9000)
	msg := reassembleAll(t, r, src, frames)
	if msg == nil {
		t.Fatal("message did not complete")
	}
	if msg.ZeroCopy {
		t.Error("MTU-9000 64KiB message must exceed the 17-page budget")
	}
}

func TestReassemblerOutOfOrder(t *testing.T) {
	r := NewReassembler(0)
	src := NewMAC(4)
	data := make([]byte, 40000)
	for i := range data {
		data[i] = byte(i)
	}
	frames, _ := segment(5, 2, data, 1500)
	// Deliver in reverse.
	var msg *Message
	for i := len(frames) - 1; i >= 0; i-- {
		m, err := r.Add(src, frames[i])
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			msg = m
		}
	}
	if msg == nil || !bytes.Equal(msg.Data, data) {
		t.Error("out-of-order reassembly failed")
	}
}

func TestReassemblerDuplicateFragmentsIgnored(t *testing.T) {
	r := NewReassembler(0)
	src := NewMAC(5)
	data := make([]byte, 20000)
	frames, _ := segment(6, 2, data, 1500)
	// Send the first fragment three times, then the rest.
	for i := 0; i < 3; i++ {
		if m, err := r.Add(src, frames[0]); err != nil || m != nil {
			t.Fatalf("dup fragment: m=%v err=%v", m, err)
		}
	}
	msg := reassembleAll(t, r, src, frames[1:])
	if msg == nil {
		t.Fatal("message with duplicates did not complete")
	}
	if msg.Fragments != len(frames) {
		t.Errorf("Fragments = %d, want %d (dups must not count)", msg.Fragments, len(frames))
	}
}

func TestReassemblerInterleavedSourcesAndMessages(t *testing.T) {
	r := NewReassembler(0)
	srcA, srcB := NewMAC(10), NewMAC(11)
	dataA := bytes.Repeat([]byte{0xA}, 30000)
	dataB := bytes.Repeat([]byte{0xB}, 30000)
	framesA, _ := segment(1, 1, dataA, 1500)
	framesB, _ := segment(1, 1, dataB, 1500) // same msgID, different src
	var done int
	n := len(framesA)
	for i := 0; i < n; i++ {
		if m, _ := r.Add(srcA, framesA[i]); m != nil {
			if !bytes.Equal(m.Data, dataA) {
				t.Error("A corrupted")
			}
			done++
		}
		if m, _ := r.Add(srcB, framesB[i]); m != nil {
			if !bytes.Equal(m.Data, dataB) {
				t.Error("B corrupted")
			}
			done++
		}
	}
	if done != 2 {
		t.Errorf("completed %d messages, want 2", done)
	}
}

func TestReassemblerEviction(t *testing.T) {
	r := NewReassembler(2)
	src := NewMAC(1)
	// Three incomplete messages: the first must be evicted.
	for id := uint32(1); id <= 3; id++ {
		frames, _ := segment(id, 1, make([]byte, 5000), 1500)
		if _, err := r.Add(src, frames[0]); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.partial) != 2 {
		t.Errorf("%d partials pending, want 2", len(r.partial))
	}
	if _, kept := r.partial[reassemblyKey{src, 1}]; kept {
		t.Error("the oldest partial was not the one evicted")
	}
}

func TestReassemblerRejectsGarbage(t *testing.T) {
	r := NewReassembler(0)
	if _, err := r.Add(NewMAC(1), []byte("too short")); err == nil {
		t.Error("garbage fragment accepted")
	}
}

func TestReassemblerEmptyMessage(t *testing.T) {
	r := NewReassembler(0)
	frames, _ := segment(9, 4, nil, 1500)
	msg := reassembleAll(t, r, NewMAC(1), frames)
	if msg == nil {
		t.Fatal("empty message did not complete")
	}
	if len(msg.Data) != 0 {
		t.Errorf("empty message data len = %d", len(msg.Data))
	}
}

// Property: segment + shuffle + reassemble = identity, for any payload and
// any valid MTU.
func TestReassemblerShuffleProperty(t *testing.T) {
	r := NewReassembler(0)
	seed := uint32(1)
	next := func(n int) int { // tiny LCG for deterministic shuffles
		seed = seed*1664525 + 1013904223
		return int(seed % uint32(n))
	}
	f := func(payload []byte, mtuRaw uint16) bool {
		if len(payload) > MaxMessage {
			payload = payload[:MaxMessage]
		}
		mtu := 100 + int(mtuRaw%8900)
		frames, err := segment(77, 1, payload, mtu)
		if err != nil {
			return false
		}
		for i := len(frames) - 1; i > 0; i-- {
			j := next(i + 1)
			frames[i], frames[j] = frames[j], frames[i]
		}
		var msg *Message
		for _, fr := range frames {
			m, err := r.Add(NewMAC(99), fr)
			if err != nil {
				return false
			}
			if m != nil {
				msg = m
			}
		}
		return msg != nil && bytes.Equal(msg.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
