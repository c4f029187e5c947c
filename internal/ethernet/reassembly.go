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
// A message that arrives whole in one fragment, with no partial of its own
// pending, completes in place: its Data aliases the fragment passed to Add,
// and no byte is copied. A multi-fragment message reassembles into a buffer
// of its own, drawn from the pool when one is attached (SetPool); the
// consumer of the completed message owns that buffer and returns it with
// PutRaw when done. Partial-message bookkeeping structs are recycled
// internally either way, so steady-state reassembly does not allocate.
type Reassembler struct {
	partial map[reassemblyKey]*partialMsg
	// MaxPartial bounds concurrently reassembling messages; beyond it the
	// oldest partial is evicted (defensive against leaking state when
	// fragments are lost and the message is never completed).
	maxPartial int
	seq        uint64

	pool     *bufpool.Pool
	partials *bufpool.List[partialMsg]
	// done is the scratch for completed messages: Add's return value points
	// at it and is valid until the next Add. The reassembler does not touch
	// a completed message's Data again.
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
		partials:   bufpool.NewList("ethernet partial messages", func() *partialMsg { return &partialMsg{} }),
	}
}

// SetPool attaches a buffer pool: multi-fragment message buffers are drawn
// from it, and the consumer of each such message owns Data (returning it to
// the same pool closes the loop).
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
	// InPlace reports that Data aliases the one fragment passed to Add, so
	// it lives as long as that fragment's buffer; otherwise Data is a
	// reassembly buffer of its own.
	InPlace bool
}

// ErrDeviceMismatch reports fragments of one message disagreeing on the
// front-end device id.
var ErrDeviceMismatch = errors.New("ethernet: fragments disagree on device id")

// acquire returns a recycled (or fresh) partial with buf/have sized for
// total bytes and no byte covered.
func (r *Reassembler) acquire(total uint32) *partialMsg {
	p := r.partials.Get()
	*p = partialMsg{have: p.have, buf: r.getBuf(total), total: total}
	words := (int(total) + 63) / 64
	if cap(p.have) < words {
		p.have = make([]uint64, words)
	} else {
		p.have = p.have[:words]
		clear(p.have)
	}
	return p
}

// getBuf returns a message buffer of total bytes, from the pool if one is
// attached.
func (r *Reassembler) getBuf(total uint32) []byte {
	if r.pool != nil {
		return r.pool.GetRaw(int(total))
	}
	return make([]byte, total)
}

// recycle returns a partial's bookkeeping to the free list. The message
// buffer is NOT recycled here: on completion its ownership moved to the
// consumer; on eviction it goes back to the pool by the caller.
func (r *Reassembler) recycle(p *partialMsg) {
	p.buf = nil
	r.partials.Put(p)
}

// Add ingests one fragment (frame payload bytes). It returns a completed
// message when this fragment finishes one, or nil. The returned Message
// points at per-reassembler scratch, valid until the next Add. Its Data
// aliases raw when the message completed in place (InPlace) and is
// otherwise the caller's to keep (and to PutRaw when a pool is attached).
// Duplicate fragments (retransmissions seen twice) are tolerated and
// ignored.
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
	if p == nil && seg.Offset == 0 && seg.Total > 0 && uint32(len(seg.Payload)) == seg.Total {
		// A whole message in one fragment with no partial of its own (every
		// net and 4 KiB block message at the paper's MTU) completes in
		// place, whatever else is reassembling. The seq advance is what the
		// map path below would make.
		r.seq++
		m := r.complete(src, seg, seg.Payload, FragmentPages(len(raw)), 1)
		m.InPlace = true
		return m, nil
	}
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
	// Fragments from AppendFrames never overlap, but retransmitted frames
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
	m := r.complete(src, seg, p.buf, p.pages, p.frags)
	r.recycle(p)
	return m, nil
}

// complete fills the completion scratch with the message seg finished:
// data in buf, spread over frags fragments taking pages pages.
func (r *Reassembler) complete(src MAC, seg Segment, buf []byte, pages, frags int) *Message {
	r.done = Message{
		Src:       src,
		MsgID:     seg.MsgID,
		DeviceID:  seg.DeviceID,
		Data:      buf,
		ZeroCopy:  pages <= MaxZeroCopyPages,
		Fragments: frags,
	}
	return &r.done
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
	}
}
