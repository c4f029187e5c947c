// Package virtio reimplements the virtio virtqueue — the shared-memory ring
// protocol that the baseline, Elvis, and vRIO I/O models all speak (§4.1:
// "We directly reuse the virtio protocol"). The descriptor table, avail ring
// and used ring are bytes laid out exactly like guest shared memory
// (little-endian), so the driver and device sides genuinely communicate
// through encoded bytes rather than Go object graphs. The payload is not:
// as in real virtio, a descriptor names a buffer the driver lends, here a
// slab of the testbed's buffer pool held only while the descriptor carries
// data, so ring memory is proportional to use.
package virtio

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vrio/internal/bufpool"
	"vrio/internal/trace"
)

// Descriptor flags, as in the virtio spec.
const (
	descFlagNext  = 0x1 // continues via the next field
	descFlagWrite = 0x2 // device-writable (driver-readable) buffer
)

const (
	descSize      = 16 // u64 addr, u32 len, u16 flags, u16 next
	usedElemSize  = 8  // u32 id, u32 len
	ringHdrSize   = 4  // u16 flags, u16 idx
	maxQueueSize  = 32768
	minQueueSize  = 2
	minSegmentLen = 64
)

// Errors returned by ring operations.
var (
	ErrRingFull     = errors.New("virtio: not enough free descriptors")
	ErrBadChain     = errors.New("virtio: corrupt descriptor chain")
	ErrTooLarge     = errors.New("virtio: buffer exceeds ring capacity")
	ErrEmptyRequest = errors.New("virtio: request has no segments")
)

// Ring is one virtqueue. The driver side (guest) posts buffers with Add and
// reaps completions with Reap; the device side (host/sidecore/IOhost) polls
// with PopInto and completes with Push. A Ring is not safe for concurrent use;
// the simulation is single-threaded by design.
//
// The descriptor table is the one record of a chain: every walk follows its
// next and flags fields from the head, at most qsize hops, so a corrupt
// table cannot hang the ring. A walk also ends at a free descriptor (length
// 0, flags 0, so no next flag) and Push at one it has already written, so a
// chain that loops back on itself is freed, and filled, once. Descriptors
// a corrupt chain cut off from its head return to the free list when the
// ring drains.
type Ring struct {
	qsize   int
	segSize int
	pool    *bufpool.Pool

	// Shared memory regions.
	desc  []byte // descriptor table: qsize * descSize
	avail []byte // avail ring: hdr + qsize * 2
	used  []byte // used ring: hdr + qsize * usedElemSize
	// bufs[i] is the pool slab descriptor i lends, nil while it carries no
	// data: an out descriptor holds one from Add to PopInto, an in
	// descriptor from Push to ReapInto. (The addr field stays zero.)
	bufs [][]byte

	// Driver-private state. posted and spans are indexed by chain head:
	// whether a request is in flight, and its guest_ring span.
	freeHead    uint16
	numFree     int
	lastUsedIdx uint16
	posted      []bool
	spans       []trace.SpanID
	inFlight    int

	// Device-private state.
	lastAvailIdx uint16

	// Statistics.
	kicks       uint64
	completions uint64

	// Tracer, when non-nil, records a guest_ring span per request from Add
	// to Reap, named SpanName with the chain head as the correlation arg.
	// Rings owned by the baseline/Elvis hosts leave this nil; the vRIO
	// model's ring-equivalent submission point is the transport driver,
	// which does its own tracing.
	Tracer   *trace.Tracer
	SpanName string
}

// NewRing builds a virtqueue with qsize descriptors of up to segSize bytes
// each, whose buffers come from pool. qsize must be a power of two in
// [2, 32768], matching hardware virtio.
func NewRing(qsize, segSize int, pool *bufpool.Pool) (*Ring, error) {
	if qsize < minQueueSize || qsize > maxQueueSize || qsize&(qsize-1) != 0 {
		return nil, fmt.Errorf("virtio: queue size %d must be a power of two in [%d, %d]",
			qsize, minQueueSize, maxQueueSize)
	}
	if segSize < minSegmentLen {
		return nil, fmt.Errorf("virtio: segment size %d below minimum %d", segSize, minSegmentLen)
	}
	r := &Ring{
		qsize:   qsize,
		segSize: segSize,
		pool:    pool,
		desc:    make([]byte, qsize*descSize),
		avail:   make([]byte, ringHdrSize+qsize*2),
		used:    make([]byte, ringHdrSize+qsize*usedElemSize),
		bufs:    make([][]byte, qsize),
		numFree: qsize,
		posted:  make([]bool, qsize),
		spans:   make([]trace.SpanID, qsize),
	}
	r.freeAll()
	return r, nil
}

// freeAll chains every descriptor into the free list, returning any slab
// one still holds to the pool. It is only sound with nothing in flight.
func (r *Ring) freeAll() {
	for i, buf := range r.bufs {
		if buf != nil {
			r.pool.PutRaw(buf)
			r.bufs[i] = nil
		}
		r.writeDesc(uint16(i), 0, 0, uint16(i+1))
	}
	r.freeHead, r.numFree = 0, r.qsize
}

// QueueSize reports the number of descriptors.
func (r *Ring) QueueSize() int { return r.qsize }

// FreeDescriptors reports how many descriptors are currently free.
func (r *Ring) FreeDescriptors() int { return r.numFree }

// Kicks reports how many times the driver published new buffers.
func (r *Ring) Kicks() uint64 { return r.kicks }

// Completions reports how many buffers the device has pushed used.
func (r *Ring) Completions() uint64 { return r.completions }

// --- raw shared-memory accessors ---

func (r *Ring) writeDesc(i uint16, length uint32, flags, next uint16) {
	off := int(i) * descSize
	binary.LittleEndian.PutUint32(r.desc[off+8:], length)
	binary.LittleEndian.PutUint16(r.desc[off+12:], flags)
	binary.LittleEndian.PutUint16(r.desc[off+14:], next)
}

func (r *Ring) readDesc(i uint16) (length uint32, flags, next uint16) {
	off := int(i) * descSize
	length = binary.LittleEndian.Uint32(r.desc[off+8:])
	flags = binary.LittleEndian.Uint16(r.desc[off+12:])
	next = binary.LittleEndian.Uint16(r.desc[off+14:])
	return
}

func (r *Ring) availIdx() uint16 { return binary.LittleEndian.Uint16(r.avail[2:]) }
func (r *Ring) setAvailIdx(v uint16) {
	binary.LittleEndian.PutUint16(r.avail[2:], v)
}
func (r *Ring) availEntry(slot uint16) uint16 {
	return binary.LittleEndian.Uint16(r.avail[ringHdrSize+2*int(slot%uint16(r.qsize)):])
}
func (r *Ring) setAvailEntry(slot, head uint16) {
	binary.LittleEndian.PutUint16(r.avail[ringHdrSize+2*int(slot%uint16(r.qsize)):], head)
}

func (r *Ring) usedIdx() uint16 { return binary.LittleEndian.Uint16(r.used[2:]) }
func (r *Ring) setUsedIdx(v uint16) {
	binary.LittleEndian.PutUint16(r.used[2:], v)
}
func (r *Ring) usedEntry(slot uint16) (id, length uint32) {
	off := ringHdrSize + usedElemSize*int(slot%uint16(r.qsize))
	return binary.LittleEndian.Uint32(r.used[off:]), binary.LittleEndian.Uint32(r.used[off+4:])
}
func (r *Ring) setUsedEntry(slot uint16, id, length uint32) {
	off := ringHdrSize + usedElemSize*int(slot%uint16(r.qsize))
	binary.LittleEndian.PutUint32(r.used[off:], id)
	binary.LittleEndian.PutUint32(r.used[off+4:], length)
}

// --- driver (guest) side ---

// segsNeeded reports how many descriptors a byte count occupies.
func (r *Ring) segsNeeded(n int) int {
	if n == 0 {
		return 0
	}
	return (n + r.segSize - 1) / r.segSize
}

// Add posts one request: out is driver-provided data the device reads;
// inLen is the number of device-writable bytes reserved for the response.
// It returns the chain head, which identifies the request at completion.
// Each out descriptor lends a pool slab holding its share of out; the in
// descriptors lend nothing until the device writes them.
func (r *Ring) Add(out []byte, inLen int) (uint16, error) {
	nOut := r.segsNeeded(len(out))
	nIn := r.segsNeeded(inLen)
	total := nOut + nIn
	if total == 0 {
		return 0, ErrEmptyRequest
	}
	if total > r.qsize {
		return 0, ErrTooLarge
	}
	if total > r.numFree {
		return 0, ErrRingFull
	}

	head := r.freeHead
	cur := head
	for i := 0; i < total; i++ {
		_, _, next := r.readDesc(cur)
		var flags uint16
		var l int
		if i < nOut {
			l = min(len(out), r.segSize)
			r.bufs[cur] = r.pool.Clone(out[:l])
			out = out[l:]
		} else {
			flags = descFlagWrite
			l = min(inLen-(i-nOut)*r.segSize, r.segSize)
		}
		if i < total-1 {
			flags |= descFlagNext
			r.writeDesc(cur, uint32(l), flags, next)
			cur = next
		} else {
			r.freeHead = next
			r.writeDesc(cur, uint32(l), flags, 0)
		}
	}
	r.numFree -= total
	r.spans[head] = r.Tracer.BeginArg(trace.CatGuestRing, r.SpanName, 0, uint64(head))
	r.posted[head] = true
	r.inFlight++

	// Publish: write head into the avail ring, then bump idx (the memory
	// barrier in real hardware; ordering is trivially preserved here).
	idx := r.availIdx()
	r.setAvailEntry(idx, head)
	r.setAvailIdx(idx + 1)
	r.kicks++
	return head, nil
}

// Completion is one finished request as seen by the driver.
type Completion struct {
	Head uint16
	// In holds the device-written response bytes (length as reported by the
	// device), copied out of the descriptors' buffers into a per-batch-slot
	// buffer — valid until the batch slot is reused by the next ReapInto.
	In []byte
}

// ReapBatch is a reusable harvest: ReapInto refills Completions in place,
// reusing each slot's In capacity, so a steady-state reap loop does not
// allocate. One batch per reaping loop; its contents are invalidated by the
// next ReapInto.
type ReapBatch struct {
	Completions []Completion
}

// next extends the batch by one slot, resurrecting a previously used
// element (and its In capacity) when possible.
func (b *ReapBatch) next() *Completion {
	if len(b.Completions) < cap(b.Completions) {
		b.Completions = b.Completions[:len(b.Completions)+1]
	} else {
		b.Completions = append(b.Completions, Completion{})
	}
	return &b.Completions[len(b.Completions)-1]
}

// Reap collects at most max completed requests (all of them if max <= 0),
// freeing their descriptors. Each call allocates a fresh result; hot loops
// use ReapInto with a reused batch.
func (r *Ring) Reap(max int) []Completion {
	var b ReapBatch
	r.ReapInto(&b, max)
	if len(b.Completions) == 0 {
		return nil
	}
	return b.Completions
}

// ReapInto harvests at most max completed requests (all if max <= 0) into
// b, resetting it first, and returns how many were reaped. Response bytes
// are copied into b's reusable slot buffers; then the descriptors are freed
// and their slabs returned to the pool. When the ring drains with
// descriptors still unaccounted for, which only a corrupt chain leaves,
// every descriptor is freed.
func (r *Ring) ReapInto(b *ReapBatch, max int) int {
	b.Completions = b.Completions[:0]
	for r.lastUsedIdx != r.usedIdx() {
		if max > 0 && len(b.Completions) >= max {
			break
		}
		id, length := r.usedEntry(r.lastUsedIdx)
		r.lastUsedIdx++
		head := uint16(id)
		if int(head) >= r.qsize || !r.posted[head] {
			// The device completed something we never posted: protocol bug.
			panic(fmt.Sprintf("virtio: used entry for unknown head %d", head))
		}
		r.posted[head] = false
		r.inFlight--
		r.Tracer.End(r.spans[head])
		c := b.next()
		c.Head = head
		c.In = c.In[:0]
		n := int(length)
		d := head
		for hops := 0; hops < r.qsize; hops++ {
			dlen, flags, next := r.readDesc(d)
			if dlen == 0 && flags == 0 {
				break // freed already: the chain looped back
			}
			if buf := r.bufs[d]; buf != nil {
				take := min(len(buf), n)
				c.In = append(c.In, buf[:take]...)
				n -= take
				r.pool.PutRaw(buf)
				r.bufs[d] = nil
			}
			r.writeDesc(d, 0, 0, r.freeHead)
			r.freeHead = d
			r.numFree++
			if flags&descFlagNext == 0 {
				break
			}
			d = next
		}
	}
	if r.inFlight == 0 && r.numFree != r.qsize {
		r.freeAll()
	}
	return len(b.Completions)
}

// InFlight reports the number of posted-but-not-reaped requests.
func (r *Ring) InFlight() int { return r.inFlight }

// --- device (host / sidecore / IOhost worker) side ---

// Chain is one request as seen by the device. Its device-writable
// descriptors are found from Head in the ring's descriptor table; the
// device responds via ring.Push.
type Chain struct {
	Head uint16
	// Out is the driver-provided request data, concatenated.
	Out  []byte
	ring *Ring
}

// InCapacity reports how many response bytes the driver reserved.
func (c *Chain) InCapacity() int {
	r := c.ring
	total := 0
	d := c.Head
	for hops := 0; hops < r.qsize; hops++ {
		length, flags, next := r.readDesc(d)
		if flags&descFlagWrite != 0 {
			total += int(length)
		}
		if flags&descFlagNext == 0 {
			break
		}
		d = next
	}
	return total
}

// PopInto fills c with the next available chain, reusing c's slice
// capacity, and reports whether one was available (false when the ring is
// empty — exactly what a sidecore's poll loop checks). The chain's Out
// bytes are copied out of the descriptors' buffers, which return to the
// pool, so they remain valid until c is reused: a device that holds a
// request across an asynchronous completion pops it into a chain that
// request owns.
func (r *Ring) PopInto(c *Chain) (bool, error) {
	if r.lastAvailIdx == r.availIdx() {
		return false, nil
	}
	head := r.availEntry(r.lastAvailIdx)
	r.lastAvailIdx++
	c.Head = head
	c.ring = r
	c.Out = c.Out[:0]
	cur := head
	for hops := 0; ; hops++ {
		if hops == r.qsize {
			return false, ErrBadChain
		}
		_, flags, next := r.readDesc(cur)
		if buf := r.bufs[cur]; buf != nil {
			c.Out = append(c.Out, buf...)
			r.pool.PutRaw(buf)
			r.bufs[cur] = nil
		}
		if flags&descFlagNext == 0 {
			break
		}
		cur = next
	}
	return true, nil
}

// HasAvail reports whether a PopInto would find work (the poll predicate).
func (r *Ring) HasAvail() bool { return r.lastAvailIdx != r.availIdx() }

// Push completes a chain, writing data into its device-writable descriptors
// — each written one draws a pool slab — and publishing a used-ring entry.
// It returns the number of bytes written (truncated to the driver's
// reserved capacity).
func (r *Ring) Push(c Chain, data []byte) int {
	written := 0
	d := c.Head
	for hops := 0; hops < r.qsize && len(data) > 0; hops++ {
		capHere, flags, next := r.readDesc(d)
		if flags&descFlagWrite != 0 {
			if r.bufs[d] != nil {
				break // written already: the chain looped back
			}
			n := min(len(data), int(capHere))
			r.bufs[d] = r.pool.Clone(data[:n])
			data = data[n:]
			written += n
		}
		if flags&descFlagNext == 0 {
			break
		}
		d = next
	}
	idx := r.usedIdx()
	r.setUsedEntry(idx, uint32(c.Head), uint32(written))
	r.setUsedIdx(idx + 1)
	r.completions++
	return written
}
