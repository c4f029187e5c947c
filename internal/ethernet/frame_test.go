package ethernet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x10, 0xde, 0xad, 0xbe, 0xef}
	if got := m.String(); got != "02:10:de:ad:be:ef" {
		t.Errorf("String = %q", got)
	}
}

// Key is the address read as a 48-bit big-endian number, so two MACs share
// a key exactly when they are equal.
func TestMACKey(t *testing.T) {
	if got := (MAC{0x02, 0x10, 0xde, 0xad, 0xbe, 0xef}).Key(); got != 0x0210deadbeef {
		t.Errorf("Key = %#x, want 0x0210deadbeef", got)
	}
	if got := Broadcast.Key(); got != 1<<48-1 {
		t.Errorf("Broadcast.Key = %#x", got)
	}
	f := func(a, b MAC) bool { return (a.Key() == b.Key()) == (a == b) && a.Key() < 1<<48 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewMACDistinctAndUnicast(t *testing.T) {
	a := NewMAC(1)
	b := NewMAC(2)
	if a == b {
		t.Error("distinct nodes got the same MAC")
	}
	if a[0]&0x01 != 0 {
		t.Error("generated MAC is multicast")
	}
	if a[0]&0x02 == 0 {
		t.Error("generated MAC is not locally administered")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(dst, src [6]byte, et uint16, payload []byte) bool {
		fr := Frame{Dst: MAC(dst), Src: MAC(src), EtherType: et, Payload: payload}
		dec, err := Decode(fr.EncodeTo(make([]byte, fr.Len())))
		if err != nil {
			return false
		}
		return dec.Dst == fr.Dst && dec.Src == fr.Src && dec.EtherType == et &&
			bytes.Equal(dec.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeShortFrame(t *testing.T) {
	if _, err := Decode(make([]byte, HeaderSize-1)); err != ErrShortFrame {
		t.Errorf("err = %v, want ErrShortFrame", err)
	}
}
