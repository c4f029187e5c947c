package bufpool

import (
	"bytes"
	"strconv"
	"unsafe"
)

// The raw-slab checks below run in race builds only (RaceEnabled). A slab in
// a class list is marked in Pool.pooled and filled with poisonByte, so a
// second PutRaw of it panics, and so does the GetRaw that finds its poison
// overwritten: a write through a reference kept past PutRaw.

const poisonByte = 0xdb

// poisonSlab is MaxPooled bytes of poisonByte (nil in normal builds).
var poisonSlab = func() []byte {
	if !RaceEnabled {
		return nil
	}
	return bytes.Repeat([]byte{poisonByte}, MaxPooled)
}()

// slabKey identifies a slab by the address of its first byte. It is a
// uintptr so that marking a slab does not keep it alive.
func slabKey(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

// poison marks b as pooled and fills it; b must not be pooled already.
func (p *Pool) poison(b []byte) {
	k := slabKey(b)
	if p.pooled[k] {
		panic("bufpool: " + strconv.Itoa(cap(b)) + "-byte slab put twice")
	}
	p.pooled[k] = true
	copy(b[:cap(b)], poisonSlab)
}

// checkPoison unmarks a slab leaving a class list and checks its poison.
func (p *Pool) checkPoison(b []byte) {
	p.pooled[slabKey(b)] = false
	if !bytes.Equal(b[:cap(b)], poisonSlab[:cap(b)]) {
		panic("bufpool: " + strconv.Itoa(cap(b)) + "-byte slab written after PutRaw")
	}
}
