package virtio

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNetHdrRoundTrip(t *testing.T) {
	f := func(flags, gso uint8, hdrLen, gsoSize, cs, co, nb uint16) bool {
		h := NetHdr{flags, gso, hdrLen, gsoSize, cs, co, nb}
		enc := h.Encode(nil)
		if len(enc) != NetHdrSize {
			return false
		}
		dec, rest, err := DecodeNetHdr(enc)
		return err == nil && len(rest) == 0 && dec == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNetHdrDecodeLeavesPayload(t *testing.T) {
	h := NetHdr{GSOType: GSOTcpv4, GSOSize: 1448}
	buf := h.Encode(nil)
	buf = append(buf, []byte("payload")...)
	dec, rest, err := DecodeNetHdr(buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.GSOType != GSOTcpv4 || dec.GSOSize != 1448 {
		t.Errorf("decoded %+v", dec)
	}
	if string(rest) != "payload" {
		t.Errorf("rest = %q", rest)
	}
}

func TestNetHdrShort(t *testing.T) {
	if _, _, err := DecodeNetHdr(make([]byte, NetHdrSize-1)); err != ErrShortHeader {
		t.Errorf("err = %v, want ErrShortHeader", err)
	}
}

func TestBlkHdrRoundTrip(t *testing.T) {
	f := func(typ uint32, sector, extent, version uint64, sectors uint32, data []byte) bool {
		r := BlkReq{Type: typ % 10, Sector: sector}
		if r.Type == BlkVolOut || r.Type == BlkVolIn {
			r.Extent, r.Version = extent, version
		}
		switch r.Type {
		case BlkIn, BlkVolIn:
			r.Sectors = int(sectors | 1)
		case BlkOut, BlkVolOut:
			r.Data = data
		}
		dec, err := DecodeBlkReq(r.Append(nil))
		return err == nil && dec.Type == r.Type && dec.Sector == r.Sector &&
			dec.Sectors == r.Sectors && dec.Extent == r.Extent &&
			dec.Version == r.Version && bytes.Equal(dec.Data, r.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlkHdrEncodeAppends(t *testing.T) {
	prefix := []byte("pre")
	r := BlkReq{Type: BlkOut, Sector: 99, Data: []byte("data")}
	out := r.Append(append([]byte{}, prefix...))
	if !bytes.HasPrefix(out, prefix) || len(out) != len(prefix)+BlkHdrSize+4 {
		t.Errorf("Append did not append: len=%d", len(out))
	}
	// Appending into a buffer with room reuses it.
	buf := make([]byte, 0, 64)
	if out := r.Append(buf); &out[0] != &buf[:1][0] {
		t.Error("Append reallocated a buffer with room")
	}
}

func TestBlkHdrShort(t *testing.T) {
	vol := BlkReq{Type: BlkVolIn, Sector: 1, Extent: 2, Version: 3, Sectors: 8}.Append(nil)
	read := BlkReq{Type: BlkIn, Sectors: 8}.Append(nil)
	for _, c := range []struct {
		name string
		b    []byte
		want error
	}{
		{"short header", make([]byte, 3), ErrShortHeader},
		{"short vol header", vol[:BlkHdrSize+VolHdrSize-1], ErrShortHeader},
		{"read without count", read[:BlkHdrSize+3], ErrBadBlkReq},
		{"vol read without count", vol[:BlkHdrSize+VolHdrSize], ErrBadBlkReq},
		{"zero-sector read", BlkReq{Type: BlkIn}.Append(nil), ErrBadBlkReq},
	} {
		if _, err := DecodeBlkReq(c.b); err != c.want {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// FuzzDecodeBlkReq feeds arbitrary bytes to the block request decoder: it
// must return an error, never panic, and whatever it accepts must survive a
// re-encode unchanged.
func FuzzDecodeBlkReq(f *testing.F) {
	f.Add(BlkReq{Type: BlkOut, Sector: 7, Data: []byte("payload")}.Append(nil))
	f.Add(BlkReq{Type: BlkIn, Sector: 7, Sectors: 8}.Append(nil))
	f.Add(BlkReq{Type: BlkVolIn, Extent: 1, Version: 2, Sectors: 8}.Append(nil))
	f.Add(BlkReq{Type: BlkFlush}.Append(nil))
	f.Add([]byte{BlkIn})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeBlkReq(b)
		if err != nil {
			return
		}
		again, err := DecodeBlkReq(r.Append(nil))
		if err != nil {
			t.Fatalf("re-decode of %+v: %v", r, err)
		}
		if again.Type != r.Type || again.Sector != r.Sector || again.Sectors != r.Sectors ||
			again.Extent != r.Extent || again.Version != r.Version || !bytes.Equal(again.Data, r.Data) {
			t.Fatalf("round trip changed %+v into %+v", r, again)
		}
	})
}

func TestDeviceTypeString(t *testing.T) {
	if DeviceNet.String() != "net" || DeviceBlk.String() != "blk" {
		t.Error("known device types misprinted")
	}
	if DeviceType(9).String() != "DeviceType(9)" {
		t.Errorf("unknown device type printed as %q", DeviceType(9).String())
	}
}
