package blockdev

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"vrio/internal/sim"
)

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*13)
	}
	return b
}

func TestStoreWriteReadAcrossPageBoundary(t *testing.T) {
	s := NewStore(512, 64)
	// Sectors 6..13 are bytes 3072..7168: the tail of page 0 and most of
	// page 1.
	data := pattern(8*512, 1)
	if err := s.Write(6, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read across the page boundary differs from the write")
	}
	// A read that covers both pages whole sees zeros around the write.
	all, err := s.Read(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 16*512)
	copy(want[6*512:], data)
	if !bytes.Equal(all, want) {
		t.Error("bytes around a page-spanning write are not zero")
	}
}

func TestStorePartlyWrittenPageReadsZero(t *testing.T) {
	s := NewStore(512, 32)
	sec := pattern(512, 7)
	if err := s.Write(3, sec); err != nil {
		t.Fatal(err)
	}
	// Page 0 is allocated but only sector 3 was written; page 1 and later
	// were never touched.
	got, err := s.Read(0, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		in := i >= 3*512 && i < 4*512
		if in && b != sec[i-3*512] || !in && b != 0 {
			t.Fatalf("byte %d = %#x", i, b)
		}
	}
}

func TestStoreCapacityNotPageMultiple(t *testing.T) {
	// 13 sectors is 6.5 KiB: the second page is only half inside the device.
	s := NewStore(512, 13)
	last := pattern(512, 3)
	if err := s.Write(12, last); err != nil {
		t.Fatalf("write of the last sector: %v", err)
	}
	got, err := s.Read(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[4*512:], last) {
		t.Error("last sector read back wrong")
	}
	if err := s.Write(12, make([]byte, 1024)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write past the end: err = %v", err)
	}
	if _, err := s.Read(13, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read at the end: err = %v", err)
	}
	// sector+n wraps around uint64; the range check must still refuse it.
	if _, err := s.Read(^uint64(0), 2); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("wrapping read: err = %v", err)
	}
	if err := s.Write(^uint64(0), make([]byte, 1024)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("wrapping write: err = %v", err)
	}
}

func TestStoreSectorLargerThanPage(t *testing.T) {
	s := NewStore(2*pageSize, 4)
	data := pattern(2*2*pageSize, 9)
	if err := s.Write(1, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 4*2*pageSize)
	copy(want[2*pageSize:], data)
	if !bytes.Equal(got, want) {
		t.Error("multi-page sectors read back wrong")
	}
}

// Property: random writes and reads agree with a flat byte array.
func TestStoreMatchesFlatOracle(t *testing.T) {
	const sectorSize, capacity = 512, 50 // 25 KiB: six full pages and a part
	rng := rand.New(rand.NewSource(1))
	s := NewStore(sectorSize, capacity)
	oracle := make([]byte, sectorSize*capacity)
	for i := 0; i < 2000; i++ {
		sector := uint64(rng.Intn(capacity))
		n := 1 + rng.Intn(capacity-int(sector))
		off := int(sector) * sectorSize
		if rng.Intn(2) == 0 {
			data := make([]byte, n*sectorSize)
			rng.Read(data)
			if err := s.Write(sector, data); err != nil {
				t.Fatal(err)
			}
			copy(oracle[off:], data)
			continue
		}
		got, err := s.Read(sector, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oracle[off:off+n*sectorSize]) {
			t.Fatalf("op %d: read of %d sectors at %d differs from the oracle", i, n, sector)
		}
	}
}

// The device lends one read buffer to every read's completion callback:
// the bytes are right inside the callback, and the next read overwrites
// them. Consumers that keep read data must copy it before returning.
func TestDeviceReadBufferIsBorrowed(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 64), 10, 2)
	a, b := pattern(1024, 1), pattern(1024, 2)
	for _, w := range []struct {
		sector uint64
		data   []byte
	}{{0, a}, {8, b}} {
		d.Submit(Request{Op: OpWrite, Sector: w.sector, Data: w.data}, func(r Response) {
			if r.Err != nil {
				t.Errorf("write: %v", r.Err)
			}
		})
	}
	e.Run()
	var first []byte
	d.Submit(Request{Op: OpRead, Sector: 0, Sectors: 2}, func(r Response) {
		if !bytes.Equal(r.Data, a) {
			t.Error("first read wrong inside its callback")
		}
		first = r.Data
	})
	d.Submit(Request{Op: OpRead, Sector: 8, Sectors: 2}, func(r Response) {
		if !bytes.Equal(r.Data, b) {
			t.Error("second read wrong inside its callback")
		}
		if &r.Data[0] != &first[0] {
			t.Error("second read did not reuse the device's read buffer")
		}
	})
	e.Run()
	if !bytes.Equal(first, b) {
		t.Error("a read buffer held past its callback was not reused")
	}
}

func TestStoreWriteAndDeviceReadZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 64), 10, 1)
	data := pattern(4096, 5)
	// Touch pages 0 and 1 and size the read buffer first.
	if err := d.Store().Write(4, data); err != nil {
		t.Fatal(err)
	}
	if _, err := d.read(4, 8); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = d.Store().Write(4, data) }); allocs != 0 {
		t.Errorf("4 KiB write to touched pages: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { _, _ = d.read(4, 8) }); allocs != 0 {
		t.Errorf("4 KiB device read fill: %.1f allocs/op, want 0", allocs)
	}
	// Whole requests too: queueing behind the single bank, the completion
	// event and the callbacks reuse their storage.
	done := func(r Response) {
		if r.Err != nil {
			t.Error(r.Err)
		}
	}
	roundTrip := func() {
		d.Submit(Request{Op: OpWrite, Sector: 4, Data: data}, done)
		d.Submit(Request{Op: OpRead, Sector: 4, Sectors: 8}, done)
		e.Run()
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("4 KiB device write+read: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkDeviceRW4K is one 4 KiB write and one 4 KiB read through a
// ramdisk-latency device, completion callbacks included.
func BenchmarkDeviceRW4K(b *testing.B) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 1<<16), 1*sim.Microsecond, 4)
	data := pattern(4096, 1)
	rng := rand.New(rand.NewSource(1))
	var sink byte
	onWrite := func(r Response) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	onRead := func(r Response) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		sink ^= r.Data[0]
	}
	b.SetBytes(2 * 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sector := uint64(rng.Intn(1<<13)) * 8
		d.Submit(Request{Op: OpWrite, Sector: sector, Data: data}, onWrite)
		d.Submit(Request{Op: OpRead, Sector: sector, Sectors: 8}, onRead)
		e.Run()
	}
	_ = sink
}
