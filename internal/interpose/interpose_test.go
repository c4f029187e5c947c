package interpose

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"vrio/internal/sim"
)

func key32() []byte { return bytes.Repeat([]byte{0x42}, 32) }

func TestAESRoundTrip(t *testing.T) {
	enc, err := NewAES(key32(), 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := []byte("the quick brown fox")
	ct, cost, err := enc.Process(ToDevice, 1, plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, plain) {
		t.Error("ciphertext equals plaintext")
	}
	if cost != sim.Time(len(plain)) {
		t.Errorf("cost = %v, want %d", cost, len(plain))
	}
	// CTR is symmetric: processing again decrypts.
	pt, _, err := enc.Process(ToGuest, 1, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, plain) {
		t.Errorf("decrypt mismatch: %q", pt)
	}
}

func TestAESKeyValidation(t *testing.T) {
	if _, err := NewAES(make([]byte, 16), 0); err == nil {
		t.Error("16-byte key accepted for AES-256")
	}
}

func TestAESDifferentKeysDiffer(t *testing.T) {
	a, _ := NewAES(bytes.Repeat([]byte{1}, 32), 0)
	b, _ := NewAES(bytes.Repeat([]byte{2}, 32), 0)
	msg := []byte("same message")
	ca, _, _ := a.Process(ToDevice, 0, msg)
	cb, _, _ := b.Process(ToDevice, 0, msg)
	if bytes.Equal(ca, cb) {
		t.Error("two keys produced identical ciphertext")
	}
}

// Property: encrypt-then-decrypt is the identity for arbitrary payloads.
func TestAESRoundTripProperty(t *testing.T) {
	enc, _ := NewAES(key32(), 0)
	f := func(payload []byte) bool {
		ct, _, err := enc.Process(ToDevice, 0, payload)
		if err != nil {
			return false
		}
		pt, _, err := enc.Process(ToGuest, 0, ct)
		return err == nil && bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFirewallDropsDenied(t *testing.T) {
	fw := NewFirewall(10, []byte("EVIL"))
	out, cost, err := fw.Process(ToDevice, 0, []byte("EVIL payload"))
	if out != nil || err != nil {
		t.Errorf("denied payload passed: out=%v err=%v", out, err)
	}
	if cost != 10 {
		t.Errorf("cost = %v", cost)
	}
	if fw.Dropped != 1 {
		t.Errorf("Dropped = %d", fw.Dropped)
	}
	ok, _, err := fw.Process(ToDevice, 0, []byte("GOOD payload"))
	if err != nil || string(ok) != "GOOD payload" {
		t.Error("allowed payload mangled")
	}
}

func TestMeterCounts(t *testing.T) {
	m := NewMeter()
	m.Process(ToDevice, 3, make([]byte, 100))
	m.Process(ToGuest, 3, make([]byte, 50))
	m.Process(ToDevice, 4, make([]byte, 10))
	if m.Bytes(3) != 150 || m.Packets(3) != 2 {
		t.Errorf("dev 3: bytes=%d packets=%d", m.Bytes(3), m.Packets(3))
	}
	if m.Bytes(4) != 10 || m.Packets(4) != 1 {
		t.Errorf("dev 4: bytes=%d packets=%d", m.Bytes(4), m.Packets(4))
	}
	if m.Bytes(9) != 0 {
		t.Error("unmetered device nonzero")
	}
}

func TestDedupDetectsDuplicates(t *testing.T) {
	d := NewDedup(1)
	block := bytes.Repeat([]byte{7}, 4096)
	d.Process(ToDevice, 0, block)
	if d.DupBytes != 0 {
		t.Error("first write counted as dup")
	}
	d.Process(ToDevice, 0, block)
	if d.DupBytes != 4096 {
		t.Errorf("DupBytes = %d, want 4096", d.DupBytes)
	}
	// Reads never affect the index.
	d.Process(ToGuest, 0, block)
	if d.DupBytes != 4096 {
		t.Error("read counted as dup")
	}
}

func TestChainOrderAndCost(t *testing.T) {
	enc, _ := NewAES(key32(), 2)
	m := NewMeter()
	c := NewChain(m, enc) // meter sees plaintext on the way out
	plain := []byte("hello")

	ct, cost, err := c.Process(ToDevice, 1, plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, plain) {
		t.Error("chain did not encrypt")
	}
	if cost != sim.Time(len(plain))*2 {
		t.Errorf("cost = %v", cost)
	}
	if m.Bytes(1) != uint64(len(plain)) {
		t.Error("meter did not see plaintext size")
	}

	// Reverse direction: decrypt first, then meter.
	pt, _, err := c.Process(ToGuest, 1, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, plain) {
		t.Error("chain reverse did not decrypt")
	}
	if m.Bytes(1) != 2*uint64(len(plain)) {
		t.Error("meter missed return traffic")
	}
}

func TestChainDropsPropagate(t *testing.T) {
	fw := NewFirewall(0, []byte{0xBA, 0xD0})
	c := NewChain(fw, Null{})
	_, _, err := c.Process(ToDevice, 0, []byte{0xBA, 0xD0, 1, 2})
	if !errors.Is(err, ErrDropped) {
		t.Errorf("err = %v, want ErrDropped", err)
	}
}

func TestEmptyChainIsIdentity(t *testing.T) {
	c := NewChain()
	out, cost, err := c.Process(ToDevice, 0, []byte("x"))
	if err != nil || cost != 0 || string(out) != "x" {
		t.Error("empty chain not identity")
	}
	if c.Len() != 0 {
		t.Error("Len != 0")
	}
}

func TestNullService(t *testing.T) {
	var n Null
	out, cost, err := n.Process(ToGuest, 0, []byte("y"))
	if err != nil || cost != 0 || string(out) != "y" {
		t.Error("null not identity")
	}
	if n.Name() != "null" {
		t.Error("bad name")
	}
}

// Property: a chain of [meter, aes] then its reverse restores any payload.
func TestChainInverseProperty(t *testing.T) {
	enc, _ := NewAES(key32(), 0)
	c := NewChain(NewMeter(), enc)
	f := func(payload []byte) bool {
		ct, _, err := c.Process(ToDevice, 9, payload)
		if err != nil {
			return false
		}
		pt, _, err := c.Process(ToGuest, 9, ct)
		return err == nil && bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Running a chain guest-bound walks its services in reverse without copying
// the service list: a pass that drops nothing allocates nothing.
func TestChainToGuestZeroAlloc(t *testing.T) {
	c := NewChain(NewFirewall(5, []byte("DENY")), Null{})
	payload := []byte("inbound frame")
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := c.Process(ToGuest, 1, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ToGuest pass: %v allocs, want 0", allocs)
	}
}
