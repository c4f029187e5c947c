package ethernet

import (
	"errors"
	"fmt"
	"math/bits"

	"vrio/internal/bufpool"
)

// Reassembler rebuilds messages from encapsulated fragments at the IOhost
// (or at the IOclient for responses). It mirrors §4.4's zero-copy SKB
// construction: fragments are collected per (source MAC, message id) and the
// message completes when the byte range [0, total) is fully covered.
//
// With a buffer pool attached (SetPool), message buffers come from the pool
// and ownership of a completed message's Data transfers to the consumer,
// who returns it with PutRaw when done; partial-message bookkeeping structs
// are recycled internally either way, so steady-state reassembly does not
// allocate.
type Reassembler struct {
	partial map[reassemblyKey]*partialMsg
	// MaxPartial bounds concurrently reassembling messages; beyond it the
	// oldest partial is evicted (defensive against leaking state when
	// fragments are lost and the message is never completed).
	maxPartial int
	evictions  uint64
	seq        uint64

	pool *bufpool.Pool
	free []*partialMsg
	// done is the scratch for completed messages: Add's return value points
	// at it and is valid until the next Add. Data ownership transfers to
	// the caller (the buffer is not touched by the reassembler again).
	done Message
}

type reassemblyKey struct {
	src   MAC
	msgID uint32
}

type partialMsg struct {
	buf      []byte
	have     []uint64 // coverage bitset: bit i%64 of word i/64 marks byte i
	covered  uint32
	total    uint32
	deviceID uint16
	pages    int
	frags    int
	seq      uint64 // insertion order for eviction
}

// NewReassembler returns a reassembler that tracks at most maxPartial
// in-progress messages (default 1024 if maxPartial <= 0).
func NewReassembler(maxPartial int) *Reassembler {
	if maxPartial <= 0 {
		maxPartial = 1024
	}
	return &Reassembler{
		partial:    make(map[reassemblyKey]*partialMsg),
		maxPartial: maxPartial,
	}
}

// SetPool attaches a buffer pool: message buffers are drawn from it, and
// the consumer of each completed message owns Data (returning it to the
// same pool closes the loop).
func (r *Reassembler) SetPool(p *bufpool.Pool) { r.pool = p }

// Message is one fully reassembled message.
type Message struct {
	Src      MAC
	MsgID    uint32
	DeviceID uint16
	Data     []byte
	// ZeroCopy reports whether the reassembly stayed within the 17-page SKB
	// budget; when false the datapath must charge a copy (§4.4).
	ZeroCopy bool
	// Fragments is how many fragments composed the message.
	Fragments int
}

// ErrDeviceMismatch reports fragments of one message disagreeing on the
// front-end device id.
var ErrDeviceMismatch = errors.New("ethernet: fragments disagree on device id")

// Pending reports the number of partially reassembled messages.
func (r *Reassembler) Pending() int { return len(r.partial) }

// Evictions reports how many partial messages were dropped to respect the
// partial-message bound.
func (r *Reassembler) Evictions() uint64 { return r.evictions }

// acquire returns a recycled (or fresh) partial with buf/have sized for
// total bytes and no byte covered.
func (r *Reassembler) acquire(total uint32) *partialMsg {
	var p *partialMsg
	if n := len(r.free); n > 0 {
		p = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		*p = partialMsg{have: p.have}
	} else {
		p = &partialMsg{}
	}
	if r.pool != nil {
		p.buf = r.pool.GetRaw(int(total))
	} else {
		p.buf = make([]byte, total)
	}
	words := (int(total) + 63) / 64
	if cap(p.have) < words {
		p.have = make([]uint64, words)
	} else {
		p.have = p.have[:words]
		clear(p.have)
	}
	p.total = total
	return p
}

// recycle returns a partial's bookkeeping to the free list. The message
// buffer is NOT recycled here: on completion its ownership moved to the
// consumer; on eviction it goes back to the pool by the caller.
func (r *Reassembler) recycle(p *partialMsg) {
	p.buf = nil
	if len(r.free) < r.maxPartial {
		r.free = append(r.free, p)
	}
}

// Add ingests one fragment (frame payload bytes). It returns a completed
// message when this fragment finishes one, or nil. The returned Message
// points at per-reassembler scratch, valid until the next Add; its Data is
// the caller's to keep (and to PutRaw when a pool is attached). Duplicate
// fragments (retransmissions seen twice) are tolerated and ignored.
func (r *Reassembler) Add(src MAC, raw []byte) (*Message, error) {
	seg, err := DecodeSegment(raw)
	if err != nil {
		return nil, err
	}
	if seg.Total > MaxMessage {
		// No sender builds one; refusing it keeps a forged length from
		// sizing the message buffer.
		return nil, fmt.Errorf("%w: total %d (msg %d)", ErrMessageTooBig, seg.Total, seg.MsgID)
	}
	key := reassemblyKey{src, seg.MsgID}
	p := r.partial[key]
	if p == nil {
		if len(r.partial) >= r.maxPartial {
			r.evictOldest()
		}
		p = r.acquire(seg.Total)
		p.deviceID = seg.DeviceID
		p.seq = r.seq
		r.seq++
		r.partial[key] = p
	}
	if p.total != seg.Total || p.deviceID != seg.DeviceID {
		return nil, fmt.Errorf("%w (msg %d)", ErrDeviceMismatch, seg.MsgID)
	}
	// Coverage is tracked per byte via the range [Offset, Offset+len).
	// Fragments from SegmentMessage never overlap, but retransmitted frames
	// can duplicate; only newly covered bytes count.
	newBytes := cover(p.have, int(seg.Offset), int(seg.Offset)+len(seg.Payload))
	if newBytes > 0 {
		copy(p.buf[seg.Offset:], seg.Payload)
		p.covered += newBytes
		p.frags++
		p.pages += FragmentPages(len(raw))
	}
	if p.covered < p.total && !(p.total == 0 && seg.Last) {
		return nil, nil
	}
	delete(r.partial, key)
	r.done = Message{
		Src:       src,
		MsgID:     seg.MsgID,
		DeviceID:  p.deviceID,
		Data:      p.buf,
		ZeroCopy:  p.pages <= MaxZeroCopyPages,
		Fragments: p.frags,
	}
	r.recycle(p)
	return &r.done, nil
}

// cover marks bytes [lo, hi) in the bitset have and returns how many of
// them were not marked before.
func cover(have []uint64, lo, hi int) uint32 {
	added := 0
	for lo < hi {
		bit := lo & 63
		n := min(hi-lo, 64-bit)
		mask := ^uint64(0)
		if n < 64 {
			mask = (uint64(1)<<n - 1) << bit
		}
		w := &have[lo>>6]
		added += bits.OnesCount64(mask &^ *w)
		*w |= mask
		lo += n
	}
	return uint32(added)
}

func (r *Reassembler) evictOldest() {
	var oldestKey reassemblyKey
	var oldest *partialMsg
	for k, p := range r.partial {
		if oldest == nil || p.seq < oldest.seq {
			oldest = p
			oldestKey = k
		}
	}
	if oldest != nil {
		delete(r.partial, oldestKey)
		if r.pool != nil {
			r.pool.PutRaw(oldest.buf)
		}
		r.recycle(oldest)
		r.evictions++
	}
}
