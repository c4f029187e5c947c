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

// checkAgainstOracle feeds frames to r and to o and fails on the first
// disagreement; every completed message must equal msgByte at each offset.
func checkAgainstOracle(t *testing.T, r *Reassembler, o *byteOracle, frames [][]byte, msgByte func(int) byte) int {
	t.Helper()
	completions := 0
	for i, fr := range frames {
		seg, err := DecodeSegment(fr)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		total := int(seg.Total)
		wantDone, wantFrags, wantZC := o.add(seg, len(fr))
		m, err := r.Add(NewMAC(1), fr)
		if err != nil {
			t.Fatalf("frame %d: Add: %v", i, err)
		}
		if (m != nil) != wantDone {
			t.Fatalf("frame %d (total %d, off %d, len %d): completed=%v, oracle %v",
				i, total, seg.Offset, len(seg.Payload), m != nil, wantDone)
		}
		if m == nil {
			continue
		}
		completions++
		if m.Fragments != wantFrags || m.ZeroCopy != wantZC {
			t.Fatalf("frame %d: Fragments=%d ZeroCopy=%v, oracle %d %v",
				i, m.Fragments, m.ZeroCopy, wantFrags, wantZC)
		}
		if len(m.Data) != total {
			t.Fatalf("frame %d: message of %d bytes, want %d", i, len(m.Data), total)
		}
		for j, b := range m.Data {
			if b != msgByte(j) {
				t.Fatalf("frame %d: message byte %d = %#x, want %#x", i, j, b, msgByte(j))
			}
		}
	}
	return completions
}

// Property: for totals at and around the 64-bit word edges and the largest
// message, shuffled fragments cut at one MTU, re-fragmented at a second
// (overlapping the first) and partly duplicated complete at the same frame,
// with the same Fragments and ZeroCopy, as the per-byte oracle.
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
	for _, total := range []int{0, 1, 63, 64, 65, 8100, MaxMessage} {
		for trial := 0; trial < 6; trial++ {
			msg := make([]byte, total)
			rng.Read(msg)
			frames, err := SegmentMessage(9, 3, msg, randMTU())
			if err != nil {
				t.Fatal(err)
			}
			second, err := SegmentMessage(9, 3, msg, randMTU())
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
			var o byteOracle
			if checkAgainstOracle(t, NewReassembler(0), &o, frames, func(j int) byte { return msg[j] }) == 0 {
				t.Fatalf("total %d: message never completed", total)
			}
		}
	}
}

func fuzzByte(id, off int) byte { return byte(off*7 + id*101 + off>>8) }

// FuzzReassemblerAdd drives the reassembler with arbitrary bytes as a frame
// and with arbitrary segment sequences over two messages: nothing panics,
// and a message completes exactly when the per-byte oracle says every byte
// of it is covered, carrying the bytes its fragments carried.
//
// Input layout: totals of messages 0 and 1 (two little-endian uint16s),
// then up to 64 5-byte records [flags][offset:2][length:2]; flags bit 0
// picks the message, bit 1 sets PSH. Offset and length are reduced into
// range. The record cap keeps one input's work bounded.
func FuzzReassemblerAdd(f *testing.F) {
	f.Add([]byte{0x40, 0, 0x41, 0, 0, 0, 0, 0x40, 0, 1, 0, 0, 0x41, 0})
	f.Add([]byte{0, 0x10, 0, 0, 2, 0, 0, 0, 0x08, 3, 0, 0, 0, 0, 0, 0x08, 0, 0, 0x08})
	f.Add([]byte{0xff, 0xff, 1, 0, 0, 0x10, 0, 0xff, 0xff, 1, 0, 0, 1, 0})
	f.Add(func() []byte {
		fr, _ := SegmentMessage(1, 1, make([]byte, 100), 1500)
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
		var oracles [2]byteOracle
		rec := in[4:]
		for k := 0; k < 64 && len(rec) >= 5; k, rec = k+1, rec[5:] {
			id := int(rec[0] & 1)
			total := totals[id]
			off := int(binary.LittleEndian.Uint16(rec[1:])) % (total + 1)
			n := int(binary.LittleEndian.Uint16(rec[3:])) % (total - off + 1)
			n = min(n, 0xffff-EncapOverhead) // the IPv4 total-length field
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = fuzzByte(id, off+i)
			}
			frame := make([]byte, EncapOverhead+n)
			EncapSegmentInto(frame, Segment{
				MsgID: uint32(id), DeviceID: 7, Offset: uint32(off), Total: uint32(total),
				Last: rec[0]&2 != 0, Payload: payload,
			})
			checkAgainstOracle(t, r, &oracles[id], [][]byte{frame}, func(j int) byte { return fuzzByte(id, j) })
		}
	})
}

func TestReassemblerRejectsOversizeTotal(t *testing.T) {
	frame := make([]byte, EncapOverhead+10)
	EncapSegmentInto(frame, Segment{MsgID: 1, Total: MaxMessage + 1, Payload: make([]byte, 10)})
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
	frames, err := SegmentMessage(1, 1, bytes.Repeat([]byte{0x5a}, 4096), 1500)
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
