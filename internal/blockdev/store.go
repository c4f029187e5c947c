// Package blockdev implements the storage substrate: an in-memory paged
// store (the ramdisk of §5 "Making a Local Device Remote"), latency-modelled
// devices (ramdisk and SATA-SSD profiles), the §4.4 sector-alignment
// zero-copy accounting, and the guest disk scheduler that guarantees at most
// one outstanding request per block — the property §4.5's retransmission
// correctness argument rests on.
//
// The store keeps its bytes in fixed 4 KiB pages keyed by page index; a page
// is allocated on its first write and written in place after that, so
// steady-state writes and device reads do not allocate.
package blockdev

import (
	"errors"
	"fmt"
)

// pageSize is the store's allocation unit in bytes. Sector offsets map to
// bytes linearly, so a request may span pages, and a sector larger than a
// page simply spans several.
const pageSize = 4096

type page [pageSize]byte

// Store is an in-memory sector-addressed disk. Unwritten sectors read as
// zeros. The zero value is not usable; call NewStore.
type Store struct {
	sectorSize int
	capacity   uint64 // in sectors
	pages      map[uint64]*page
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
	if sectorSize <= 0 || sectorSize&(sectorSize-1) != 0 {
		panic(fmt.Sprintf("blockdev: sector size %d must be a positive power of two", sectorSize))
	}
	if capacitySectors == 0 {
		panic("blockdev: zero capacity")
	}
	return &Store{
		sectorSize: sectorSize,
		capacity:   capacitySectors,
		pages:      make(map[uint64]*page),
	}
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
		idx := off / pageSize
		p := s.pages[idx]
		if p == nil {
			p = new(page)
			s.pages[idx] = p
		}
		n := copy(p[off%pageSize:], data)
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

// copyOut fills dst from the bytes at sector on; unwritten pages read as
// zeros. The range must already be checked.
func (s *Store) copyOut(dst []byte, sector uint64) {
	off := sector * uint64(s.sectorSize)
	for len(dst) > 0 {
		var n int
		if p := s.pages[off/pageSize]; p != nil {
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
