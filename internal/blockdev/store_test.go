package blockdev

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

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

// A write and a read that straddle a page-table leaf boundary see the pages
// of both leaves, and the device lends neither leaf's page for the read.
func TestStoreAcrossLeafBoundary(t *testing.T) {
	const perLeaf = leafPages * pageSize / 512 // sectors one leaf maps
	s := NewStore(512, 3*perLeaf)
	data := pattern(4*512, 4)
	if err := s.Write(perLeaf-2, data); err != nil { // two sectors in each leaf
		t.Fatal(err)
	}
	if s.dir[0] == nil || s.dir[1] == nil || s.dir[2] != nil {
		t.Errorf("leaves allocated: %v %v %v, want the first two only", s.dir[0] != nil, s.dir[1] != nil, s.dir[2] != nil)
	}
	got, err := s.Read(perLeaf-4, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := append(make([]byte, 2*512), data...)
	if !bytes.Equal(got, append(want, make([]byte, 2*512)...)) {
		t.Error("a read across the leaf boundary differs from the write around zeros")
	}
	if s.lend(perLeaf-2, 4*512) != nil {
		t.Error("a range across the leaf boundary was lent from one page")
	}
}

// The last page of a capacity that is not a whole number of leaves, nor of
// pages, lives in the directory's last, partly used leaf.
func TestStoreLastPageOfPartialLeaf(t *testing.T) {
	const capacity = (leafPages+3)*pageSize/512 + 5 // one leaf, three pages and five sectors
	s := NewStore(512, capacity)
	if len(s.dir) != 2 {
		t.Fatalf("directory of %d leaves, want 2", len(s.dir))
	}
	last := pattern(512, 8)
	if err := s.Write(capacity-1, last); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(capacity-5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(make([]byte, 4*512), last...)) {
		t.Error("the device's last sector read back wrong")
	}
	if p := s.dir[1][3]; p == nil || !bytes.Equal(p[4*512:5*512], last) {
		t.Error("the last sector is not in the last leaf's fourth page")
	}
	if err := s.Write(capacity, last); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write past the last sector: err = %v", err)
	}
}

// memDelta reports the heap objects and bytes f allocates.
func memDelta(f func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// A store pays for what is written: NewStore allocates the Store and a
// directory of capacity/2 MiB entries (4 KiB at 1 GiB, which the runtime
// holds in a 4864-byte block, as it does every pointer block of 4 KiB); the
// first write to a page of a touched leaf allocates that 4 KiB page and
// nothing else; an overwrite allocates nothing.
func TestStoreWriteAllocs(t *testing.T) {
	const gig = 1 << 30
	var s *Store
	allocs, n := memDelta(func() { s = NewStore(512, gig/512) })
	if dir := len(s.dir) * int(unsafe.Sizeof(s.dir[0])); allocs != 2 || dir != 4096 || n > 5<<10 {
		t.Errorf("NewStore(1 GiB): %d allocs of %d bytes, a directory of %d bytes; want the Store and a 4 KiB directory", allocs, n, dir)
	}
	data := pattern(pageSize, 6)
	if err := s.Write(0, data); err != nil { // touch leaf 0
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { _ = s.Write(0, data) }); a != 0 {
		t.Errorf("overwrite: %.1f allocs/op, want 0", a)
	}
	next := uint64(0) // the 201 first writes below stay inside leaf 0
	firstWrite := func() {
		next += pageSize / 512
		_ = s.Write(next, data)
	}
	if a := testing.AllocsPerRun(100, firstWrite); a != 1 {
		t.Errorf("first write to a page of a touched leaf: %.1f allocs/op, want 1", a)
	}
	const runs = 100
	if _, n := memDelta(func() {
		for range runs {
			firstWrite()
		}
	}); n/runs != pageSize {
		t.Errorf("first write to a page of a touched leaf: %d bytes/op, want %d", n/runs, pageSize)
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

// The device lends every read to its completion callback: the bytes are
// right inside the callback and may change after it. A read inside one page
// is the store's page itself, which the next write to it overwrites (an
// unwritten page reads from the shared zero page); a read across pages
// fills the device's one read buffer, which the next such read overwrites.
// Consumers that keep read data must copy it before returning.
func TestDeviceReadBufferIsBorrowed(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, NewStore(512, 64), 10, 2)
	a, b := pattern(1024, 1), pattern(1024, 2)
	write := func(sector uint64, data []byte) {
		d.Submit(Request{Op: OpWrite, Sector: sector, Data: data}, func(r Response) {
			if r.Err != nil {
				t.Errorf("write: %v", r.Err)
			}
		})
		e.Run()
	}
	read := func(sector uint64, n int, want []byte) (lent []byte) {
		d.Submit(Request{Op: OpRead, Sector: sector, Sectors: n}, func(r Response) {
			if !bytes.Equal(r.Data, want) {
				t.Errorf("read of sector %d wrong inside its callback", sector)
			}
			lent = r.Data
		})
		e.Run()
		return lent
	}
	write(0, a)
	write(8, b)

	// Inside one page: the page itself, and the zero page where unwritten.
	first := read(0, 2, a)
	if p := d.store.page(0); &first[0] != &p[0] {
		t.Error("a read inside one page was not lent from the page")
	}
	write(0, b)
	if !bytes.Equal(first, b) {
		t.Error("a page held past its callback did not see the next write")
	}
	if z := read(16, 8, make([]byte, 4096)); &z[0] != &zeroPage[0] {
		t.Error("a read of an unwritten page was not lent from the zero page")
	}

	// Across pages: the device's read buffer, reused by the next such read.
	across := append(make([]byte, 1024), b...) // sectors 6..9
	held := read(6, 4, across)
	if p := d.store.page(1); &held[0] == &p[0] || &held[0] == &d.store.page(0)[3072] {
		t.Error("a read across pages was lent from a page")
	}
	if got := read(14, 4, make([]byte, 2048)); &got[0] != &held[0] {
		t.Error("the second read across pages did not reuse the device's read buffer")
	}
	if !bytes.Equal(held, make([]byte, 2048)) {
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
