// Package blockdev implements the storage substrate: an in-memory paged
// store (the ramdisk of §5 "Making a Local Device Remote"), latency-modelled
// devices (ramdisk and SATA-SSD profiles), the §4.4 sector-alignment
// zero-copy accounting, and the guest disk scheduler that guarantees at most
// one outstanding request per block — the property §4.5's retransmission
// correctness argument rests on.
//
// The store keeps its bytes in fixed 4 KiB pages found through a two-level
// page table: a directory sized to the capacity, of leaves that each map
// 2 MiB of the device. A leaf is allocated on the first write in its range,
// a page on its first write. The replica stores of one volume form a group
// that holds a block's bytes once: a whole-page write points at a sibling's
// page at the same index when that page holds exactly these bytes, a page
// is written in place only while no sibling shares it, and a shared page is
// copied first. Pages no store references any more wait on the group's
// free list for the next copy, so steady-state writes and device reads do
// not allocate. A standalone store is a group of one.
package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"math"
)

// pageSize is the store's allocation unit in bytes. Sector offsets map to
// bytes linearly, so a request may span pages, and a sector larger than a
// page simply spans several.
const pageSize = 4096

type page [pageSize]byte

// leafShift sets the reach of a page-table leaf: 1<<leafShift pages, 2 MiB
// of device in 4 KiB of pointers. The directory of a 1 GiB store is then
// 4 KiB, and a store of up to 2 MiB has one entry.
const (
	leafShift = 9
	leafPages = 1 << leafShift
)

type leaf [leafPages]*page

// zeroPage is what an unwritten page reads as when a read is lent rather
// than copied (see Store.lend). Nothing may write it.
var zeroPage page

// Store is an in-memory sector-addressed disk. Unwritten sectors read as
// zeros. The zero value is not usable; call NewStore or NewReplicaStores.
type Store struct {
	sectorSize int
	capacity   uint64  // in sectors
	dir        []*leaf // leaf i maps pages i<<leafShift on; nil until written
	// group is every store that may share this one's pages, itself among
	// them. Its stores run on one engine, so sharing needs no lock.
	group []Store
	// free holds, on group[0] only, the group's pages that no store
	// references.
	free []*page
}

// Errors returned by Store.
var (
	ErrUnaligned    = errors.New("blockdev: buffer not a multiple of the sector size")
	ErrOutOfRange   = errors.New("blockdev: access beyond device capacity")
	ErrBadOp        = errors.New("blockdev: unknown operation")
	ErrZeroSectors  = errors.New("blockdev: zero-length access")
	ErrDeviceFailed = errors.New("blockdev: injected device failure")
)

// NewStore builds a store of capacitySectors sectors of sectorSize bytes.
func NewStore(sectorSize int, capacitySectors uint64) *Store {
	return &newGroup(1, sectorSize, capacitySectors)[0]
}

// NewReplicaStores builds n stores of one geometry that share identical
// pages: the replica stores of one volume. A write to one never changes
// what another reads.
func NewReplicaStores(n, sectorSize int, capacitySectors uint64) []*Store {
	g := newGroup(n, sectorSize, capacitySectors)
	stores := make([]*Store, n)
	for i := range g {
		stores[i] = &g[i]
	}
	return stores
}

func newGroup(n, sectorSize int, capacitySectors uint64) []Store {
	if sectorSize <= 0 || sectorSize&(sectorSize-1) != 0 {
		panic(fmt.Sprintf("blockdev: sector size %d must be a positive power of two", sectorSize))
	}
	if capacitySectors == 0 {
		panic("blockdev: zero capacity")
	}
	if capacitySectors > math.MaxUint64/uint64(sectorSize) {
		panic(fmt.Sprintf("blockdev: %d sectors of %d bytes overflow a byte offset", capacitySectors, sectorSize))
	}
	pages := (capacitySectors*uint64(sectorSize)-1)/pageSize + 1
	g := make([]Store, n)
	for i := range g {
		g[i] = Store{
			sectorSize: sectorSize,
			capacity:   capacitySectors,
			dir:        make([]*leaf, (pages-1)>>leafShift+1),
			group:      g,
		}
	}
	return g
}

// page returns page idx, or nil while it is unwritten.
func (s *Store) page(idx uint64) *page {
	if l := s.dir[idx>>leafShift]; l != nil {
		return l[idx%leafPages]
	}
	return nil
}

// writePage puts b at byte lo of page idx, allocating the page's leaf on
// the first write in its range. A whole page that a store of the group
// holds with exactly these bytes is shared, not copied. Any other write goes
// in place when no sibling holds the page, and otherwise into a copy.
func (s *Store) writePage(idx uint64, lo int, b []byte) {
	l := s.dir[idx>>leafShift]
	if l == nil {
		l = new(leaf)
		s.dir[idx>>leafShift] = l
	}
	slot := &l[idx%leafPages]
	old := *slot
	if len(b) == pageSize {
		for i := range s.group {
			if p := s.group[i].page(idx); p != nil && bytes.Equal(p[:], b) {
				*slot = p
				if old != nil && s.holders(idx, old) == 0 {
					s.group[0].free = append(s.group[0].free, old)
				}
				return
			}
		}
	}
	if old != nil && s.holders(idx, old) == 1 {
		copy(old[lo:], b)
		return
	}
	p := s.spare()
	switch {
	case len(b) == pageSize:
	case old != nil:
		*p = *old
	default:
		*p = page{}
	}
	copy(p[lo:], b)
	*slot = p // old, if any, is still a sibling's
}

// holders counts the group's stores that hold p as page idx.
func (s *Store) holders(idx uint64, p *page) int {
	n := 0
	for i := range s.group {
		if s.group[i].page(idx) == p {
			n++
		}
	}
	return n
}

// spare returns a page to copy into: one from the group's free list, or a
// new one. Its bytes are undefined.
func (s *Store) spare() *page {
	free := &s.group[0].free
	n := len(*free)
	if n == 0 {
		return new(page)
	}
	p := (*free)[n-1]
	*free = (*free)[:n-1]
	return p
}

// SectorSize reports the sector size in bytes.
func (s *Store) SectorSize() int { return s.sectorSize }

// Capacity reports the device size in sectors.
func (s *Store) Capacity() uint64 { return s.capacity }

// checkRange rejects an access of n (> 0) sectors from sector that runs
// past the capacity; the form of the test cannot overflow.
func (s *Store) checkRange(sector, n uint64) error {
	if sector >= s.capacity || n > s.capacity-sector {
		return fmt.Errorf("%w: sector %d + %d > %d", ErrOutOfRange, sector, n, s.capacity)
	}
	return nil
}

// Write stores data (a whole number of sectors) starting at sector.
func (s *Store) Write(sector uint64, data []byte) error {
	if len(data) == 0 {
		return ErrZeroSectors
	}
	if len(data)%s.sectorSize != 0 {
		return fmt.Errorf("%w: %d bytes", ErrUnaligned, len(data))
	}
	if err := s.checkRange(sector, uint64(len(data)/s.sectorSize)); err != nil {
		return err
	}
	off := sector * uint64(s.sectorSize)
	for len(data) > 0 {
		lo := int(off % pageSize)
		n := min(len(data), pageSize-lo)
		s.writePage(off/pageSize, lo, data[:n])
		data = data[n:]
		off += uint64(n)
	}
	return nil
}

// Read returns n sectors starting at sector in a fresh buffer.
func (s *Store) Read(sector uint64, n int) ([]byte, error) {
	if err := s.checkRead(sector, n); err != nil {
		return nil, err
	}
	out := make([]byte, n*s.sectorSize)
	s.copyOut(out, sector)
	return out, nil
}

func (s *Store) checkRead(sector uint64, n int) error {
	if n <= 0 {
		return ErrZeroSectors
	}
	return s.checkRange(sector, uint64(n))
}

// lend returns the size bytes at sector on without copying them when they
// lie inside one page: a view of the page, or of zeroPage when the page is
// unwritten. It returns nil for a range that crosses a page boundary. The
// range must already be checked, and the view is valid until the next
// write to this store (a sibling's write copies a page this store still
// holds); nothing may write through it.
func (s *Store) lend(sector uint64, size int) []byte {
	off := sector * uint64(s.sectorSize)
	lo := int(off % pageSize)
	if lo+size > pageSize {
		return nil
	}
	p := s.page(off / pageSize)
	if p == nil {
		p = &zeroPage
	}
	return p[lo : lo+size : lo+size]
}

// copyOut fills dst from the bytes at sector on; unwritten pages read as
// zeros. The range must already be checked.
func (s *Store) copyOut(dst []byte, sector uint64) {
	off := sector * uint64(s.sectorSize)
	for len(dst) > 0 {
		var n int
		if p := s.page(off / pageSize); p != nil {
			n = copy(dst, p[off%pageSize:])
		} else {
			n = min(len(dst), pageSize-int(off%pageSize))
			clear(dst[:n])
		}
		dst = dst[n:]
		off += uint64(n)
	}
}

// AlignmentCopy reports how many bytes of a write buffer must be copied
// (rather than zero-copied) because they are not sector aligned: §4.4's
// "the worker uses for zero copy inner portions of the buffer that are
// aligned, while copying the buffer edges". bufOffset is the buffer's byte
// offset within its containing page/DMA area.
func AlignmentCopy(bufOffset, length, sectorSize int) int {
	if length <= 0 {
		return 0
	}
	head := 0
	if mis := bufOffset % sectorSize; mis != 0 {
		head = sectorSize - mis
		if head > length {
			return length // entire buffer inside one misaligned sector
		}
	}
	tail := (bufOffset + length) % sectorSize
	if head+tail > length {
		return length
	}
	return head + tail
}
