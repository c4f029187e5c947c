// Package virtio reimplements the virtio virtqueue — the shared-memory ring
// protocol that the baseline, Elvis, and vRIO I/O models all speak (§4.1:
// "We directly reuse the virtio protocol"). The descriptor table, avail ring
// and used ring are bytes laid out exactly like guest shared memory
// (little-endian), so the driver and device sides genuinely communicate
// through encoded bytes rather than Go object graphs. The payload is not:
// as in real virtio, a descriptor names one whole buffer, here a slab of the
// testbed's buffer pool, and the ring passes it on instead of copying it.
// The driver's out buffers go to the device at PopInto and the device's
// reply buffers to the driver at ReapInto, each with its ownership, so ring
// memory is proportional to use and a payload is never copied in or out.
package virtio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Descriptor flags, as in the virtio spec.
const (
	descFlagNext  = 0x1 // continues via the next field
	descFlagWrite = 0x2 // device-writable (driver-readable) buffer
)

const (
	descSize     = 16 // u64 addr, u32 len, u16 flags, u16 next
	usedElemSize = 8  // u32 id, u32 len
	ringHdrSize  = 4  // u16 flags, u16 idx
	maxQueueSize = 32768
	minQueueSize = 2
)

// Errors returned by ring operations.
var (
	ErrRingFull     = errors.New("virtio: not enough free descriptors")
	ErrBadChain     = errors.New("virtio: corrupt descriptor chain")
	ErrTooLarge     = errors.New("virtio: request exceeds ring capacity")
	ErrEmptyRequest = errors.New("virtio: request has no buffers, or an empty one")
)

// Ring is one virtqueue. The driver side (guest) posts buffers with Add and
// reaps completions with ReapInto; the device side (host/sidecore/IOhost) polls
// with PopInto and completes with Push. A Ring is not safe for concurrent use;
// the simulation is single-threaded by design.
//
// The descriptor table is the one record of a chain: every walk follows its
// next and flags fields from the head, at most qsize hops, so a corrupt
// table cannot hang the ring. A walk also ends at a free descriptor (length
// 0, flags 0, so no next flag) and Push fills only empty writable
// descriptors, so a chain that loops back on itself is freed, and filled,
// once. Descriptors a corrupt chain cut off from its head return to the
// free list when the ring drains.
type Ring struct {
	qsize int

	// Shared memory regions, laid out as a split virtqueue in guest memory
	// and carved from one allocation with the driver's posted flags after
	// them.
	desc  []byte // descriptor table: qsize * descSize
	avail []byte // avail ring: hdr + qsize * 2
	used  []byte // used ring: hdr + qsize * usedElemSize
	// bufs[i] is the buffer descriptor i carries, nil while it carries none:
	// an out descriptor holds the driver's from Add to PopInto, an in
	// descriptor one of the device's reply buffers from Push to ReapInto.
	// (The addr field stays zero.)
	bufs [][]byte

	// Driver-private state. posted holds one bit per chain head, set while
	// the request that head starts is in flight.
	freeHead    uint16
	numFree     int
	lastUsedIdx uint16
	posted      []byte
	inFlight    int

	// Device-private state.
	lastAvailIdx uint16
}

// NewRing builds a virtqueue with qsize descriptors. qsize must be a power
// of two in [2, 32768], matching hardware virtio.
func NewRing(qsize int) (*Ring, error) {
	if qsize < minQueueSize || qsize > maxQueueSize || qsize&(qsize-1) != 0 {
		return nil, fmt.Errorf("virtio: queue size %d must be a power of two in [%d, %d]",
			qsize, minQueueSize, maxQueueSize)
	}
	d := qsize * descSize
	a := d + ringHdrSize + qsize*2
	u := a + ringHdrSize + qsize*usedElemSize
	mem := make([]byte, u+(qsize+7)/8)
	r := &Ring{
		qsize:  qsize,
		desc:   mem[:d:d],
		avail:  mem[d:a:a],
		used:   mem[a:u:u],
		posted: mem[u:],
		bufs:   make([][]byte, qsize),
	}
	// The table is zeroed: chaining the free list takes only the next
	// fields.
	for i := 0; i < qsize; i++ {
		binary.LittleEndian.PutUint16(r.desc[i*descSize+14:], uint16(i+1))
	}
	r.numFree = qsize
	return r, nil
}

// freeAll chains every descriptor into the free list. A buffer one still
// holds, which only a corrupt chain strands, is dropped: the raw-loan rule
// lets it fall to the collector. It is only sound with nothing in flight.
func (r *Ring) freeAll() {
	clear(r.bufs)
	for i := range r.bufs {
		r.writeDesc(uint16(i), 0, 0, uint16(i+1))
	}
	r.freeHead, r.numFree = 0, r.qsize
}

// QueueSize reports the number of descriptors.
func (r *Ring) QueueSize() int { return r.qsize }

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

// Add posts one request: out are the buffers the device reads, one
// descriptor each, and each of in reserves one device-writable descriptor
// after them for a reply buffer of up to that many bytes (a virtio-blk read
// reserves its data, then its status). It returns the chain head, which
// identifies the request at completion. Add adopts the out buffers: the
// driver hands them over, and PopInto hands them on to the device. A failed
// Add leaves them with the driver.
func (r *Ring) Add(out [][]byte, in ...int) (uint16, error) {
	total := len(out) + len(in)
	for _, b := range out {
		if len(b) == 0 {
			return 0, ErrEmptyRequest
		}
	}
	for _, n := range in {
		if n <= 0 {
			return 0, ErrEmptyRequest
		}
	}
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
		var l int
		var flags uint16
		if i < len(out) {
			r.bufs[cur] = out[i]
			l = len(out[i])
		} else {
			l, flags = in[i-len(out)], descFlagWrite
		}
		if i < total-1 {
			r.writeDesc(cur, uint32(l), flags|descFlagNext, next)
			cur = next
		} else {
			r.freeHead = next
			r.writeDesc(cur, uint32(l), flags, 0)
		}
	}
	r.numFree -= total
	r.publish(head)
	return head, nil
}

// publish marks the chain at head in flight and writes it into the avail
// ring, then bumps idx (the memory barrier in real hardware; ordering is
// trivially preserved here).
func (r *Ring) publish(head uint16) {
	r.posted[head/8] |= 1 << (head % 8)
	r.inFlight++
	idx := r.availIdx()
	r.setAvailEntry(idx, head)
	r.setAvailIdx(idx + 1)
}

// StockIn posts up to n requests of one device-writable descriptor of size
// bytes each and pops them for the device at once, handing take each
// head, oldest first. It leaves the ring as n calls of Add(nil, size), then
// as many of PopInto, would, and returns how many it posted: fewer than n
// when the free descriptors run out. Receive buffers are stocked this way.
// The device must have popped every earlier request, and size must be
// positive.
func (r *Ring) StockIn(n, size int, take func(head uint16)) int {
	if size <= 0 || r.lastAvailIdx != r.availIdx() {
		panic("virtio: StockIn needs a positive size and a drained avail ring")
	}
	n = min(n, r.numFree)
	r.numFree -= n
	for i := 0; i < n; i++ {
		head := r.freeHead
		_, _, r.freeHead = r.readDesc(head)
		r.writeDesc(head, uint32(size), descFlagWrite, 0)
		r.bufs[head] = nil
		r.publish(head)
		r.lastAvailIdx++
		take(head)
	}
	return n
}

// Completion is one finished request as seen by the driver.
type Completion struct {
	Head uint16
	// In holds the reply buffers the device pushed, in chain order, handed
	// over to the driver, which releases each once done with it. A
	// descriptor the device left empty contributes none, so the last buffer
	// is the last one the device wrote (a virtio-blk reply's status). In is
	// a view of its batch, valid until the batch's next ReapInto.
	In [][]byte
}

// ReapBatch is a reusable harvest: ReapInto refills Completions in place,
// and every completion's In is a window of one flat slice the batch keeps,
// so a steady-state reap loop does not allocate. One batch per reaping
// loop; its contents are invalidated by the next ReapInto.
type ReapBatch struct {
	Completions []Completion
	in          [][]byte
}

// ReapInto harvests at most max completed requests (all if max <= 0) into
// b, resetting it first, and returns how many were reaped. Each reply
// buffer passes to the driver in its completion's In, and the descriptors
// are freed. When the ring drains with descriptors still unaccounted for,
// which only a corrupt chain leaves, every descriptor is freed.
func (r *Ring) ReapInto(b *ReapBatch, max int) int {
	b.Completions, b.in = b.Completions[:0], b.in[:0]
	for r.lastUsedIdx != r.usedIdx() {
		if max > 0 && len(b.Completions) >= max {
			break
		}
		id, _ := r.usedEntry(r.lastUsedIdx)
		r.lastUsedIdx++
		head := uint16(id)
		if int(head) >= r.qsize || r.posted[head/8]&(1<<(head%8)) == 0 {
			// The device completed something we never posted: protocol bug.
			panic(fmt.Sprintf("virtio: used entry for unknown head %d", head))
		}
		r.posted[head/8] &^= 1 << (head % 8)
		r.inFlight--
		start := len(b.in)
		d := head
		for hops := 0; hops < r.qsize; hops++ {
			dlen, flags, next := r.readDesc(d)
			if dlen == 0 && flags == 0 {
				break // freed already: the chain looped back
			}
			if buf := r.bufs[d]; buf != nil && flags&descFlagWrite != 0 {
				b.in = append(b.in, buf)
			}
			r.bufs[d] = nil
			r.writeDesc(d, 0, 0, r.freeHead)
			r.freeHead = d
			r.numFree++
			if flags&descFlagNext == 0 {
				break
			}
			d = next
		}
		// A later append may move b.in; this window keeps the old array,
		// whose entries stay as they are.
		b.Completions = append(b.Completions, Completion{Head: head, In: b.in[start:len(b.in):len(b.in)]})
	}
	if r.inFlight == 0 && r.numFree != r.qsize {
		r.freeAll()
	}
	return len(b.Completions)
}

// --- device (host / sidecore / IOhost worker) side ---

// Chain is one request as seen by the device; the device answers it with
// ring.Push.
type Chain struct {
	Head uint16
	// Out holds the driver's buffers, one per out descriptor in chain
	// order, handed over to the device, which releases each once done.
	Out [][]byte
}

// PopInto fills c with the next available chain, reusing c's slice
// capacity, and reports whether one was available (false when the ring is
// empty — exactly what a sidecore's poll loop checks). It hands the chain's
// buffers over in c.Out, which stays valid until c is reused: a device that
// holds a request across an asynchronous completion pops it into a chain
// that request owns.
func (r *Ring) PopInto(c *Chain) (bool, error) {
	if r.lastAvailIdx == r.availIdx() {
		return false, nil
	}
	head := r.availEntry(r.lastAvailIdx)
	r.lastAvailIdx++
	c.Head = head
	c.Out = c.Out[:0]
	cur := head
	for hops := 0; ; hops++ {
		if hops == r.qsize {
			return false, ErrBadChain
		}
		_, flags, next := r.readDesc(cur)
		if buf := r.bufs[cur]; buf != nil {
			c.Out = append(c.Out, buf)
			r.bufs[cur] = nil
		}
		if flags&descFlagNext == 0 {
			break
		}
		cur = next
	}
	return true, nil
}

// Push completes a chain: it hands each reply buffer, in order, to the
// chain's next empty device-writable descriptor, cut to the length the
// driver reserved there, and publishes a used-ring entry. It returns the
// number of bytes written. A nil buffer is skipped, and a buffer the chain
// has no descriptor left for is dropped, which the raw-loan rule lets fall
// to the collector. A descriptor is filled once, even when a corrupt chain
// visits it again.
func (r *Ring) Push(c Chain, bufs ...[]byte) int {
	written := 0
	d := c.Head
	for hops := 0; hops < r.qsize; hops++ {
		for len(bufs) > 0 && bufs[0] == nil {
			bufs = bufs[1:]
		}
		if len(bufs) == 0 {
			break
		}
		capHere, flags, next := r.readDesc(d)
		if flags&descFlagWrite != 0 && r.bufs[d] == nil {
			n := min(len(bufs[0]), int(capHere))
			r.bufs[d] = bufs[0][:n]
			written += n
			bufs = bufs[1:]
		}
		if flags&descFlagNext == 0 {
			break
		}
		d = next
	}
	idx := r.usedIdx()
	r.setUsedEntry(idx, uint32(c.Head), uint32(written))
	r.setUsedIdx(idx + 1)
	return written
}
