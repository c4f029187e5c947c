package virtio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Device types carried in vRIO metadata (§4.1: "the front-end device
// identifier, type of request, and request size").
type DeviceType uint8

const (
	// DeviceNet is a paravirtual network device front-end.
	DeviceNet DeviceType = 1
	// DeviceBlk is a paravirtual block device front-end.
	DeviceBlk DeviceType = 2
)

// String implements fmt.Stringer.
func (d DeviceType) String() string {
	switch d {
	case DeviceNet:
		return "net"
	case DeviceBlk:
		return "blk"
	default:
		return fmt.Sprintf("DeviceType(%d)", uint8(d))
	}
}

// NetHdr is the virtio-net per-packet header (virtio_net_hdr), 12 bytes on
// the wire. GSO fields are what the vRIO transport reuses to drive TSO.
type NetHdr struct {
	Flags      uint8
	GSOType    uint8
	HdrLen     uint16
	GSOSize    uint16
	CsumStart  uint16
	CsumOffset uint16
	NumBuffers uint16
}

// NetHdrSize is the encoded size of NetHdr.
const NetHdrSize = 12

// GSO types from the virtio spec.
const (
	GSONone  = 0
	GSOTcpv4 = 1
)

// Encode appends the wire form of h to dst and returns the result.
func (h NetHdr) Encode(dst []byte) []byte {
	var b [NetHdrSize]byte
	b[0] = h.Flags
	b[1] = h.GSOType
	binary.LittleEndian.PutUint16(b[2:], h.HdrLen)
	binary.LittleEndian.PutUint16(b[4:], h.GSOSize)
	binary.LittleEndian.PutUint16(b[6:], h.CsumStart)
	binary.LittleEndian.PutUint16(b[8:], h.CsumOffset)
	binary.LittleEndian.PutUint16(b[10:], h.NumBuffers)
	return append(dst, b[:]...)
}

// ErrShortHeader reports a truncated header buffer.
var ErrShortHeader = errors.New("virtio: short header")

// DecodeNetHdr parses a NetHdr from b, returning the header and the
// remaining payload.
func DecodeNetHdr(b []byte) (NetHdr, []byte, error) {
	if len(b) < NetHdrSize {
		return NetHdr{}, nil, ErrShortHeader
	}
	h := NetHdr{
		Flags:      b[0],
		GSOType:    b[1],
		HdrLen:     binary.LittleEndian.Uint16(b[2:]),
		GSOSize:    binary.LittleEndian.Uint16(b[4:]),
		CsumStart:  binary.LittleEndian.Uint16(b[6:]),
		CsumOffset: binary.LittleEndian.Uint16(b[8:]),
		NumBuffers: binary.LittleEndian.Uint16(b[10:]),
	}
	return h, b[NetHdrSize:], nil
}

// Block request types (virtio_blk_req.type). BlkVolOut/BlkVolIn are the
// vRIO extension for distributed volumes: the same sector-addressed
// read/write, but carrying a VolHdr (extent id + version) so a replica can
// reject stale writers and a reader can demand at-least-committed data.
const (
	BlkIn     = 0 // read
	BlkOut    = 1 // write
	BlkFlush  = 4
	BlkVolOut = 8 // versioned replica write (BlkHdr + VolHdr + data)
	BlkVolIn  = 9 // versioned replica read (BlkHdr + VolHdr + sector count)
)

// Block request status bytes. BlkStale and BlkGap are the vRIO volume
// extension: BlkStale means the replica holds (or was asked to accept) an
// extent version older than the one named in the request's VolHdr; BlkGap
// means the replica rejected a sub-extent write because it provably missed
// an earlier version (the write's version is more than one ahead of what
// the replica holds) — the router must heal the replica with a full-extent
// copy before it can accept partial writes again.
const (
	BlkOK     = 0
	BlkIOErr  = 1
	BlkUnsupp = 2
	BlkStale  = 3
	BlkGap    = 4
)

// VolReadVerSize is the length of the replica-version field that follows the
// status byte on successful BlkVolIn responses: `[BlkOK][version:8][data]`.
// The version is the serving replica's current version for the extent (always
// at least the VolHdr's demanded minimum); rebuild and heal copies stamp
// their target with it so a copy is never credited with a version whose
// writes it might not hold.
const VolReadVerSize = 8

// BlkHdrSize is the size of the virtio-blk request header: type (4 bytes),
// reserved (4), sector (8).
const BlkHdrSize = 16

// VolHdrSize is the size of the volume header that follows the BlkHdr on
// BlkVolOut/BlkVolIn requests: extent (8 bytes), version (8).
const VolHdrSize = 16

// ErrBadBlkReq reports a block request whose body does not fit its type: a
// read without a 4-byte sector count, or one asking for zero sectors.
var ErrBadBlkReq = errors.New("virtio: malformed block request")

// BlkReq is one virtio-blk request. On the wire it is the BlkHdr, then for
// BlkVolOut/BlkVolIn the VolHdr, then the body: the payload for writes, a
// 4-byte little-endian sector count for reads, nothing otherwise.
type BlkReq struct {
	Type   uint32
	Sector uint64
	// Sectors is the read length (BlkIn, BlkVolIn).
	Sectors int
	// Extent names the stripe unit of a BlkVolOut/BlkVolIn request; Version
	// is the writer's per-extent version counter (on reads: the minimum
	// committed version the replica must hold to answer).
	Extent  uint64
	Version uint64
	// Data is the write payload (BlkOut, BlkVolOut). A decoded request's
	// Data aliases the decoded buffer.
	Data []byte
}

// vol reports whether the request type carries a VolHdr.
func (r *BlkReq) vol() bool { return r.Type == BlkVolOut || r.Type == BlkVolIn }

// Append appends the wire form of r to dst and returns the result.
func (r BlkReq) Append(dst []byte) []byte {
	var b [BlkHdrSize + VolHdrSize + 4]byte
	binary.LittleEndian.PutUint32(b[0:], r.Type)
	// bytes 4..8 reserved
	binary.LittleEndian.PutUint64(b[8:], r.Sector)
	n := BlkHdrSize
	if r.vol() {
		binary.LittleEndian.PutUint64(b[n:], r.Extent)
		binary.LittleEndian.PutUint64(b[n+8:], r.Version)
		n += VolHdrSize
	}
	var data []byte
	switch r.Type {
	case BlkIn, BlkVolIn:
		binary.LittleEndian.PutUint32(b[n:], uint32(r.Sectors))
		n += 4
	case BlkOut, BlkVolOut:
		data = r.Data
	}
	dst = slices.Grow(dst, n+len(data))
	return append(append(dst, b[:n]...), data...)
}

// DecodeBlkReq parses a block request. A type it does not know decodes
// from its BlkHdr alone, so the server can answer it BlkUnsupp.
func DecodeBlkReq(b []byte) (BlkReq, error) {
	if len(b) < BlkHdrSize {
		return BlkReq{}, ErrShortHeader
	}
	r := BlkReq{
		Type:   binary.LittleEndian.Uint32(b[0:]),
		Sector: binary.LittleEndian.Uint64(b[8:]),
	}
	body := b[BlkHdrSize:]
	if r.vol() {
		if len(body) < VolHdrSize {
			return BlkReq{}, ErrShortHeader
		}
		r.Extent = binary.LittleEndian.Uint64(body[0:])
		r.Version = binary.LittleEndian.Uint64(body[8:])
		body = body[VolHdrSize:]
	}
	switch r.Type {
	case BlkIn, BlkVolIn:
		if len(body) < 4 {
			return BlkReq{}, ErrBadBlkReq
		}
		r.Sectors = int(binary.LittleEndian.Uint32(body))
		if r.Sectors == 0 {
			return BlkReq{}, ErrBadBlkReq
		}
	case BlkOut, BlkVolOut:
		r.Data = body
	}
	return r, nil
}
