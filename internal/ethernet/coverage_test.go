package ethernet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"vrio/internal/bufpool"
)

// byteOracle is a per-byte model of Reassembler.Add for one message key:
// coverage as a []bool, newly covered bytes counted one at a time. The
// reassembler's bitset must agree with it on every fragment.
type byteOracle struct {
	have                  []bool // nil between messages
	covered, frags, pages int
}

// add applies one fragment (wireLen bytes with headers) and reports whether
// it completes the message, with the completed message's fragment count and
// zero-copy verdict.
func (o *byteOracle) add(seg Segment, wireLen int) (done bool, frags int, zeroCopy bool) {
	if o.have == nil {
		*o = byteOracle{have: make([]bool, seg.Total)}
	}
	n := 0
	for i := range seg.Payload {
		if idx := int(seg.Offset) + i; !o.have[idx] {
			o.have[idx] = true
			n++
		}
	}
	if n > 0 {
		o.covered += n
		o.frags++
		o.pages += FragmentPages(wireLen)
	}
	if o.covered < int(seg.Total) {
		return false, 0, false
	}
	done, frags, zeroCopy = true, o.frags, o.pages <= MaxZeroCopyPages
	o.have = nil
	return done, frags, zeroCopy
}

// oracleTally counts what checkAgainstOracle saw. Whole-message fragments
// (offset 0, covering the total) complete in place on Add's single-fragment
// path when no partial of their own message is pending (fast), and merge
// into that partial otherwise (bypassed); a property run must see both.
type oracleTally struct{ completions, fast, bypassed int }

// oracleSet holds one per-byte oracle per message id, created on first use.
type oracleSet map[uint32]*byteOracle

func (s oracleSet) get(id uint32) *byteOracle {
	if s[id] == nil {
		s[id] = &byteOracle{}
	}
	return s[id]
}

// inProgress counts messages begun and not yet complete: the partial
// messages the reassembler must be holding.
func (s oracleSet) inProgress() int {
	n := 0
	for _, o := range s {
		if o.have != nil {
			n++
		}
	}
	return n
}

// checkAgainstOracle feeds frames to r and to each message id's oracle and
// fails on the first disagreement, including in the number of partial
// messages pending; every completed message must equal msgByte at each
// offset.
func checkAgainstOracle(t *testing.T, r *Reassembler, oracles oracleSet, frames [][]byte, msgByte func(id uint32, off int) byte) oracleTally {
	t.Helper()
	var tally oracleTally
	for i, fr := range frames {
		seg, err := DecodeSegment(fr)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		total := int(seg.Total)
		fast := false
		if seg.Offset == 0 && total > 0 && len(seg.Payload) == total {
			if fast = r.partial[reassemblyKey{NewMAC(1), seg.MsgID}] == nil; fast {
				tally.fast++
			} else {
				tally.bypassed++
			}
		}
		wantDone, wantFrags, wantZC := oracles.get(seg.MsgID).add(seg, len(fr))
		m, err := r.Add(NewMAC(1), fr)
		if err != nil {
			t.Fatalf("frame %d: Add: %v", i, err)
		}
		if len(r.partial) != oracles.inProgress() {
			t.Fatalf("frame %d (msg %d): %d partial messages pending, oracle %d",
				i, seg.MsgID, len(r.partial), oracles.inProgress())
		}
		if (m != nil) != wantDone {
			t.Fatalf("frame %d (msg %d, total %d, off %d, len %d): completed=%v, oracle %v",
				i, seg.MsgID, total, seg.Offset, len(seg.Payload), m != nil, wantDone)
		}
		if m == nil {
			continue
		}
		tally.completions++
		if m.MsgID != seg.MsgID || m.DeviceID != seg.DeviceID || m.Src != NewMAC(1) {
			t.Fatalf("frame %d: completed msg %d dev %d src %v, want msg %d dev %d",
				i, m.MsgID, m.DeviceID, m.Src, seg.MsgID, seg.DeviceID)
		}
		if m.Fragments != wantFrags || m.ZeroCopy != wantZC {
			t.Fatalf("frame %d: Fragments=%d ZeroCopy=%v, oracle %d %v",
				i, m.Fragments, m.ZeroCopy, wantFrags, wantZC)
		}
		if m.InPlace != fast || (fast && &m.Data[0] != &fr[EncapOverhead]) {
			t.Fatalf("frame %d: InPlace=%v (Data aliases the frame: %v), want %v",
				i, m.InPlace, &m.Data[0] == &fr[EncapOverhead], fast)
		}
		if len(m.Data) != total {
			t.Fatalf("frame %d: message of %d bytes, want %d", i, len(m.Data), total)
		}
		for j, b := range m.Data {
			if b != msgByte(seg.MsgID, j) {
				t.Fatalf("frame %d: message byte %d = %#x, want %#x", i, j, b, msgByte(seg.MsgID, j))
			}
		}
	}
	return tally
}

// Property: for totals at and around the 64-bit word edges and the largest
// message, shuffled fragments cut at one MTU, re-fragmented at a second
// (overlapping the first) and partly duplicated complete at the same frame,
// with the same Fragments and ZeroCopy, as the per-byte oracle. Whole
// single-fragment messages of other ids are interleaved, and so is a whole
// copy of the big message, so Add's single-fragment path runs both with
// nothing pending, while the big message is half built, and, bypassed, on
// the big message's own pending partial.
func TestReassemblerCoverageMatchesByteOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randMTU := func() int {
		switch rng.Intn(4) {
		case 0:
			return MinMTU + rng.Intn(MaxMTU-MinMTU+1)
		case 1:
			return 1500
		case 2:
			return 8100
		default:
			return MaxMTU
		}
	}
	var sum oracleTally
	for _, total := range []int{0, 1, 63, 64, 65, 8100, MaxMessage} {
		for trial := 0; trial < 6; trial++ {
			msgs := map[uint32][]byte{9: make([]byte, total)}
			rng.Read(msgs[9])
			frames, err := segment(9, 3, msgs[9], randMTU())
			if err != nil {
				t.Fatal(err)
			}
			second, err := segment(9, 3, msgs[9], randMTU())
			if err != nil {
				t.Fatal(err)
			}
			for _, fr := range second {
				if rng.Intn(2) == 0 {
					frames = append(frames, fr)
				}
			}
			for i, n := 0, len(frames); i < n; i++ {
				if rng.Intn(4) == 0 {
					frames = append(frames, frames[i])
				}
			}
			rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
			insert := func(fr []byte) {
				at := rng.Intn(len(frames) + 1)
				frames = append(frames[:at], append([][]byte{fr}, frames[at:]...)...)
			}
			if whole, _ := segment(9, 3, msgs[9], MaxMTU); total > 0 && len(whole) == 1 {
				insert(whole[0]) // may land on the message's own pending partial
			}
			for k := 0; k < 4; k++ {
				id := uint32(100 + k)
				msgs[id] = make([]byte, 1+rng.Intn(MaxMTU-EncapOverhead))
				rng.Read(msgs[id])
				single, err := segment(id, uint16(k), msgs[id], MaxMTU)
				if err != nil || len(single) != 1 {
					t.Fatalf("single-fragment message: %d frames, %v", len(single), err)
				}
				insert(single[0])
			}
			tally := checkAgainstOracle(t, NewReassembler(0), oracleSet{}, frames,
				func(id uint32, j int) byte { return msgs[id][j] })
			if tally.completions < 5 {
				t.Fatalf("total %d: %d completions, want the big message and 4 singles", total, tally.completions)
			}
			sum.fast += tally.fast
			sum.bypassed += tally.bypassed
		}
	}
	if sum.fast == 0 || sum.bypassed == 0 {
		t.Errorf("single-fragment path taken %d times, bypassed %d: want both", sum.fast, sum.bypassed)
	}
}

func fuzzByte(id uint32, off int) byte { return byte(off*7 + int(id)*101 + off>>8) }

// encapSegment builds the fragment s as any sender could, including the
// offsets, totals and flags the segmenter never produces.
func encapSegment(s Segment) []byte {
	b := make([]byte, EncapOverhead+len(s.Payload))
	putEncap(b, s)
	copy(b[EncapOverhead:], s.Payload)
	return b
}

// FuzzReassemblerAdd drives the reassembler with arbitrary bytes as a frame
// and with arbitrary segment sequences over two messages, interleaved with
// whole single-fragment messages: nothing panics, and a message completes
// exactly when the per-byte oracle says every byte of it is covered,
// carrying the bytes its fragments carried.
//
// Input layout: totals of messages 0 and 1 (two little-endian uint16s),
// then up to 64 5-byte records [flags][offset:2][length:2]; flags bit 0
// picks the message, bit 1 sets PSH, and bit 2 instead sends one whole
// message of id 2 (its total is length, reduced to a non-empty frame).
// Offset and length are reduced into range. The record cap keeps one
// input's work bounded.
func FuzzReassemblerAdd(f *testing.F) {
	f.Add([]byte{0x40, 0, 0x41, 0, 0, 0, 0, 0x40, 0, 1, 0, 0, 0x41, 0})
	f.Add([]byte{0, 0x10, 0, 0, 2, 0, 0, 0, 0x08, 3, 0, 0, 0, 0, 0, 0x08, 0, 0, 0x08})
	f.Add([]byte{0xff, 0xff, 1, 0, 0, 0x10, 0, 0xff, 0xff, 1, 0, 0, 1, 0})
	f.Add([]byte{0x40, 0, 0x10, 0, 4, 0, 0, 0x20, 0, 0, 0, 0, 0x20, 0, 4, 0, 0, 0x10, 0, 0, 0x20, 0, 0x20, 0})
	f.Add(func() []byte {
		fr, _ := segment(1, 1, make([]byte, 100), 1500)
		return fr[0]
	}())
	f.Fuzz(func(t *testing.T, in []byte) {
		if m, err := NewReassembler(0).Add(NewMAC(2), in); err == nil && m != nil && len(m.Data) > MaxMessage {
			t.Fatalf("raw frame completed a %d-byte message", len(m.Data))
		}
		if len(in) < 4 {
			return
		}
		totals := [2]int{int(binary.LittleEndian.Uint16(in)), int(binary.LittleEndian.Uint16(in[2:]))}
		r := NewReassembler(0)
		oracles := oracleSet{}
		rec := in[4:]
		for k := 0; k < 64 && len(rec) >= 5; k, rec = k+1, rec[5:] {
			id := uint32(rec[0] & 1)
			total := totals[id]
			off := int(binary.LittleEndian.Uint16(rec[1:])) % (total + 1)
			n := int(binary.LittleEndian.Uint16(rec[3:])) % (total - off + 1)
			if rec[0]&4 != 0 {
				id, off = 2, 0
				total = 1 + int(binary.LittleEndian.Uint16(rec[3:]))%(0xffff-EncapOverhead)
				n = total
			}
			n = min(n, 0xffff-EncapOverhead) // the IPv4 total-length field
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = fuzzByte(id, off+i)
			}
			frame := encapSegment(Segment{
				MsgID: id, DeviceID: 7, Offset: uint32(off), Total: uint32(total),
				Last: rec[0]&2 != 0, Payload: payload,
			})
			checkAgainstOracle(t, r, oracles, [][]byte{frame}, fuzzByte)
		}
	})
}

func TestReassemblerRejectsOversizeTotal(t *testing.T) {
	frame := encapSegment(Segment{MsgID: 1, Total: MaxMessage + 1, Payload: make([]byte, 10)})
	if _, err := NewReassembler(0).Add(NewMAC(1), frame); err == nil {
		t.Error("a fragment claiming a message over MaxMessage was accepted")
	}
}

// BenchmarkReassemble4K reassembles a 4 KiB message from its three MTU-1500
// fragments with a buffer pool attached, returning each message buffer.
func BenchmarkReassemble4K(b *testing.B) {
	r := NewReassembler(0)
	pool := bufpool.New()
	r.SetPool(pool)
	frames, err := segment(1, 1, bytes.Repeat([]byte{0x5a}, 4096), 1500)
	if err != nil {
		b.Fatal(err)
	}
	src := NewMAC(1)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fr := range frames {
			m, err := r.Add(src, fr)
			if err != nil {
				b.Fatal(err)
			}
			if m != nil {
				pool.PutRaw(m.Data)
			}
		}
	}
}

// A single-fragment message completes in place, its Data aliasing the
// fragment, without allocating: the fast path neither creates a partial-map
// entry nor takes a buffer. It is taken per message: a partial of another
// message left pending (as one lost fragment leaves it under fault
// injection) does not turn it off, while a whole copy of the pending
// message still merges into its own partial.
func TestSingleFragmentAddZeroAlloc(t *testing.T) {
	r := NewReassembler(0)
	pool := bufpool.New()
	r.SetPool(pool)
	frames, err := segment(1, 1, bytes.Repeat([]byte{0x5a}, 4096+64), 8100)
	if err != nil || len(frames) != 1 {
		t.Fatalf("%d frames, %v; want one", len(frames), err)
	}
	pending := bytes.Repeat([]byte{0xa5}, 3000)
	halves, err := segment(2, 1, pending, 1540)
	if err != nil || len(halves) != 2 {
		t.Fatalf("%d frames, %v; want two", len(halves), err)
	}
	src := NewMAC(1)
	if m, err := r.Add(src, halves[0]); m != nil || err != nil || len(r.partial) != 1 {
		t.Fatalf("first half: %+v, %v, %d pending; want one partial", m, err, len(r.partial))
	}
	add := func() {
		m, err := r.Add(src, frames[0])
		if err != nil || m == nil || m.Fragments != 1 || !m.InPlace {
			t.Fatalf("Add = %+v, %v; want a one-fragment message in place", m, err)
		}
		if &m.Data[0] != &frames[0][EncapOverhead] || len(m.Data) != 4096+64 {
			t.Fatal("the message does not alias its fragment")
		}
	}
	add()
	if n := testing.AllocsPerRun(1000, add); n != 0 {
		t.Errorf("single-fragment Add: %v allocs/op, want 0", n)
	}
	whole, err := segment(2, 1, pending, MaxMTU)
	if err != nil || len(whole) != 1 {
		t.Fatalf("%d frames, %v; want one", len(whole), err)
	}
	m, err := r.Add(src, whole[0])
	if err != nil || m == nil || m.InPlace || m.Fragments != 2 || !bytes.Equal(m.Data, pending) {
		t.Fatalf("whole copy of the pending message: %+v, %v; want it merged into its partial", m, err)
	}
	if len(r.partial) != 0 {
		t.Errorf("%d partials pending after the merge, want 0", len(r.partial))
	}
}
