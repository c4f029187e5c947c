package ethernet

import (
	"bytes"
	"testing"
	"testing/quick"

	"vrio/internal/bufpool"
)

// segment cuts msg with the datapath segmenter, AppendFrames, and returns
// each frame's encapsulated fragment: the frame past its Ethernet header.
func segment(msgID uint32, dev uint16, msg []byte, mtu int) ([][]byte, error) {
	frames, err := AppendFrames(nil, bufpool.New(), NewMAC(2), NewMAC(1), msgID, dev, mtu, msg)
	for i := range frames {
		frames[i] = frames[i][HeaderSize:]
	}
	return frames, err
}

func TestSegmentRoundTrip(t *testing.T) {
	f := func(msgID uint32, dev uint16, payload []byte) bool {
		if len(payload) > MaxMessage {
			payload = payload[:MaxMessage]
		}
		frames, err := segment(msgID, dev, payload, 1500)
		if err != nil {
			return false
		}
		var got []byte
		for i, fr := range frames {
			seg, err := DecodeSegment(fr)
			if err != nil {
				return false
			}
			if seg.MsgID != msgID || seg.DeviceID != dev {
				return false
			}
			if int(seg.Offset) != len(got) {
				return false
			}
			if seg.Last != (i == len(frames)-1) {
				return false
			}
			got = append(got, seg.Payload...)
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a message gathered from parts cut at arbitrary points segments
// into the same frames, byte for byte, as the message in one part, and each
// frame carries the Ethernet header the segmenter was given.
func TestSegmentGathersParts(t *testing.T) {
	dst, src := NewMAC(2), NewMAC(1)
	f := func(payload []byte, cut1, cut2 uint16, mtu uint16) bool {
		m := MinMTU + int(mtu)%(MaxMTU-MinMTU+1)
		a, b := min(int(cut1)%(len(payload)+1), int(cut2)%(len(payload)+1)), max(int(cut1)%(len(payload)+1), int(cut2)%(len(payload)+1))
		pool := bufpool.New()
		whole, err := AppendFrames(nil, pool, dst, src, 3, 4, m, payload)
		if err != nil {
			return false
		}
		parts, err := AppendFrames(nil, pool, dst, src, 3, 4, m, payload[:a], nil, payload[a:b], payload[b:])
		if err != nil || len(parts) != len(whole) {
			return false
		}
		for i := range whole {
			fr, err := Decode(parts[i])
			if err != nil || fr.Dst != dst || fr.Src != src || fr.EtherType != EtherTypeVRIO || !bytes.Equal(parts[i], whole[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSegmentCountMTU8100(t *testing.T) {
	// A full 64 KiB message at MTU 8100 must produce 9 fragments (§4.4).
	msg := make([]byte, MaxMessage)
	frames, err := segment(1, 1, msg, 8100)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 9 {
		t.Errorf("fragments = %d, want 9", len(frames))
	}
	// First 8 fragments are MTU-sized; the 9th is small.
	for i := 0; i < 8; i++ {
		if len(frames[i]) != 8100 {
			t.Errorf("fragment %d wire len = %d, want 8100", i, len(frames[i]))
		}
	}
	if len(frames[8]) >= PageSize {
		t.Errorf("last fragment = %d bytes, want < one page", len(frames[8]))
	}
}

func TestSegmentTooBig(t *testing.T) {
	if _, err := segment(1, 1, make([]byte, MaxMessage+1), 8100); err == nil {
		t.Error("oversize message accepted")
	}
}

func TestSegmentBadMTU(t *testing.T) {
	for _, mtu := range []int{0, 63, 9001, -5} {
		if _, err := segment(1, 1, []byte("x"), mtu); err == nil {
			t.Errorf("MTU %d accepted", mtu)
		}
	}
}

func TestSegmentEmptyMessage(t *testing.T) {
	frames, err := segment(5, 2, nil, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("empty message produced %d fragments, want 1", len(frames))
	}
	seg, err := DecodeSegment(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Last || seg.Total != 0 || len(seg.Payload) != 0 {
		t.Errorf("empty-message segment: %+v", seg)
	}
}

func TestDecodeSegmentChecksumDetectsCorruption(t *testing.T) {
	frames, _ := segment(7, 3, []byte("data"), 1500)
	raw := frames[0]
	for bit := 0; bit < ipHeaderSize*8; bit += 13 {
		corrupted := append([]byte{}, raw...)
		corrupted[bit/8] ^= 1 << (bit % 8)
		if _, err := DecodeSegment(corrupted); err == nil {
			// Flipping a bit in the checksum-covered header must fail
			// (either the checksum or a consistency check).
			t.Errorf("corruption at header bit %d undetected", bit)
		}
	}
}

func TestDecodeSegmentShort(t *testing.T) {
	if _, err := DecodeSegment(make([]byte, EncapOverhead-1)); err != ErrShortSegment {
		t.Errorf("err = %v, want ErrShortSegment", err)
	}
}

func TestDecodeSegmentLengthMismatch(t *testing.T) {
	frames, _ := segment(7, 3, []byte("data"), 1500)
	truncated := frames[0][:len(frames[0])-2]
	if _, err := DecodeSegment(truncated); err == nil {
		t.Error("truncated segment accepted")
	}
}

func TestFragmentPages(t *testing.T) {
	cases := []struct{ wire, want int }{
		{0, 0}, {1, 1}, {4096, 1}, {4097, 2}, {8100, 2}, {8192, 2}, {8193, 3}, {9040, 3},
	}
	for _, c := range cases {
		if got := FragmentPages(c.wire); got != c.want {
			t.Errorf("FragmentPages(%d) = %d, want %d", c.wire, got, c.want)
		}
	}
}

// TestZeroCopyFeasibleMatchesPaper segments messages with AppendFrames and
// reassembles them, so §4.4's verdict comes from the code that decides it
// on real frames: MTU 8100 keeps a 64 KiB message within 17 pages (8
// fragments of 2 pages and one of 1), MTU 9000 does not (each fragment
// spans 3 pages), and a small or empty message always fits.
func TestZeroCopyFeasibleMatchesPaper(t *testing.T) {
	cases := []struct {
		msgLen, mtu int
		want        bool
	}{
		{MaxMessage, 8100, true},
		{MaxMessage, 9000, false},
		{1000, 1500, true},
		{0, 8100, true},
	}
	for i, c := range cases {
		frames, err := segment(uint32(i), 1, make([]byte, c.msgLen), c.mtu)
		if err != nil {
			t.Fatalf("segment %d bytes at MTU %d: %v", c.msgLen, c.mtu, err)
		}
		msg := reassembleAll(t, NewReassembler(0), NewMAC(1), frames)
		if msg == nil {
			t.Fatalf("%d bytes at MTU %d did not reassemble", c.msgLen, c.mtu)
		}
		if msg.ZeroCopy != c.want {
			t.Errorf("%d bytes at MTU %d: ZeroCopy = %v, want %v", c.msgLen, c.mtu, msg.ZeroCopy, c.want)
		}
	}
}

func TestIPChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style check: checksum of a header with the checksum
	// field filled must verify to zero.
	hdr := make([]byte, 20)
	hdr[0] = 0x45
	hdr[2], hdr[3] = 0x00, 0x3c
	hdr[8], hdr[9] = 64, 6
	sum := ipChecksum(hdr)
	hdr[10] = byte(sum >> 8)
	hdr[11] = byte(sum)
	if ipChecksum(hdr) != 0 {
		t.Error("checksum of checksummed header is not zero")
	}
}
