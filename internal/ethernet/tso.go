package ethernet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vrio/internal/bufpool"
)

// The fake TCP/IP encapsulation of §4.3: vRIO works at raw Ethernet level
// but prepends IPv4+TCP headers so NIC TSO segments a ≤64 KiB message in
// hardware. We reuse header fields the way STT does:
//
//	IPv4.Identification  = message id (low 16 bits)
//	TCP.SourcePort       = front-end device id
//	TCP.DestinationPort  = message id (high 16 bits)
//	TCP.SequenceNumber   = fragment byte offset within the message
//	TCP.AckNumber        = total message length
//	TCP.PSH flag         = set on the final fragment
//
// The IPv4 header checksum is computed for real; the TCP checksum is left
// zero, as it would be with checksum offload.

const (
	ipHeaderSize  = 20
	tcpHeaderSize = 20
	// EncapOverhead is the fake TCP/IP bytes prepended to every fragment.
	EncapOverhead = ipHeaderSize + tcpHeaderSize
	// MaxMessage is the largest encapsulated message: the 64 KiB TCP/IP
	// limit that also bounds what TSO can offload.
	MaxMessage = 64 * 1024
	// PageSize is the 4 KiB page used in the §4.4 fragment-page budget.
	PageSize = 4096
	// MaxZeroCopyPages is how many pages one Linux SKB can map (§4.4).
	MaxZeroCopyPages = 17
)

// Errors from the TSO layer.
var (
	ErrMessageTooBig = errors.New("ethernet: message exceeds 64KiB TSO limit")
	ErrShortSegment  = errors.New("ethernet: segment shorter than encapsulation headers")
	ErrBadIPChecksum = errors.New("ethernet: IPv4 header checksum mismatch")
	ErrBadFragment   = errors.New("ethernet: inconsistent fragment metadata")
)

// Segment is one decoded fragment of an encapsulated message.
type Segment struct {
	MsgID    uint32
	DeviceID uint16
	Offset   uint32
	Total    uint32
	Last     bool
	Payload  []byte
}

// ipChecksum computes the RFC 1071 ones'-complement header checksum.
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	if len(hdr)%2 == 1 {
		sum += uint32(hdr[len(hdr)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// putEncap writes the fake TCP/IP headers of s into b[:EncapOverhead],
// giving the IPv4 total length as len(b); s.Payload is not read.
func putEncap(b []byte, s Segment) {
	ip := b[:ipHeaderSize]
	clear(ip)
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:], uint16(len(b)))
	binary.BigEndian.PutUint16(ip[4:], uint16(s.MsgID&0xffff)) // identification
	ip[8] = 64                                                 // TTL
	ip[9] = 6                                                  // protocol TCP
	// src/dst IP left zero: addressing is by MAC on the dedicated channel.
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip))

	tcp := b[ipHeaderSize:EncapOverhead]
	clear(tcp)
	binary.BigEndian.PutUint16(tcp[0:], s.DeviceID)
	binary.BigEndian.PutUint16(tcp[2:], uint16(s.MsgID>>16))
	binary.BigEndian.PutUint32(tcp[4:], s.Offset)
	binary.BigEndian.PutUint32(tcp[8:], s.Total)
	tcp[12] = 5 << 4 // data offset
	if s.Last {
		tcp[13] = 0x08 // PSH
	}
}

// DecodeSegment parses a fragment produced by AppendFrames, verifying the
// IPv4 header checksum. The returned payload aliases b.
func DecodeSegment(b []byte) (Segment, error) {
	if len(b) < EncapOverhead {
		return Segment{}, ErrShortSegment
	}
	ip := b[:ipHeaderSize]
	if ipChecksum(ip) != 0 { // checksum over header including stored sum is 0 when valid
		return Segment{}, ErrBadIPChecksum
	}
	tot := binary.BigEndian.Uint16(ip[2:])
	if int(tot) != len(b) {
		return Segment{}, fmt.Errorf("%w: ip length %d vs %d", ErrBadFragment, tot, len(b))
	}
	ident := binary.BigEndian.Uint16(ip[4:])
	tcp := b[ipHeaderSize:EncapOverhead]
	s := Segment{
		DeviceID: binary.BigEndian.Uint16(tcp[0:]),
		MsgID:    uint32(binary.BigEndian.Uint16(tcp[2:]))<<16 | uint32(ident),
		Offset:   binary.BigEndian.Uint32(tcp[4:]),
		Total:    binary.BigEndian.Uint32(tcp[8:]),
		Last:     tcp[13]&0x08 != 0,
		Payload:  b[EncapOverhead:],
	}
	if s.Offset > s.Total || uint32(len(s.Payload)) > s.Total-s.Offset {
		return Segment{}, fmt.Errorf("%w: offset %d + len %d > total %d",
			ErrBadFragment, s.Offset, len(s.Payload), s.Total)
	}
	return s, nil
}

// AppendFrames is the NIC's TSO engine (§4.3): it cuts one message of up to
// MaxMessage bytes, gathered from parts, into encapsulated fragments of at
// most mtu bytes and appends their Ethernet frames to out, in order. Each
// frame is a slab of pool holding the Ethernet header, the fake TCP/IP
// headers and the fragment's bytes of the message. Building the frames is
// the message's one copy on the way out, standing for the NIC's DMA: the
// parts are only read, and the caller may reuse them once AppendFrames
// returns.
func AppendFrames(out [][]byte, pool *bufpool.Pool, dst, src MAC, msgID uint32, deviceID uint16, mtu int, parts ...[]byte) ([][]byte, error) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total > MaxMessage {
		return out, fmt.Errorf("%w: %d bytes", ErrMessageTooBig, total)
	}
	if mtu < MinMTU || mtu > MaxMTU {
		return out, fmt.Errorf("ethernet: MTU %d outside [%d, %d]", mtu, MinMTU, MaxMTU)
	}
	chunk := mtu - EncapOverhead
	for off := 0; ; off += chunk {
		n := min(chunk, total-off)
		b := pool.GetRaw(HeaderSize + EncapOverhead + n)
		PutHeader(b, dst, src, EtherTypeVRIO)
		putEncap(b[HeaderSize:], Segment{
			MsgID:    msgID,
			DeviceID: deviceID,
			Offset:   uint32(off),
			Total:    uint32(total),
			Last:     off+n == total,
		})
		gather(b[HeaderSize+EncapOverhead:], parts, off)
		out = append(out, b)
		if off+n == total {
			return out, nil
		}
	}
}

// gather fills b with the bytes of the concatenation of parts that start at
// offset off.
func gather(b []byte, parts [][]byte, off int) {
	for _, p := range parts {
		if len(b) == 0 {
			return
		}
		if off >= len(p) {
			off -= len(p)
			continue
		}
		b = b[copy(b, p[off:]):]
		off = 0
	}
}

// FragmentPages reports how many 4 KiB pages one fragment of the given wire
// size (headers included) occupies when mapped into an SKB.
func FragmentPages(wireLen int) int {
	if wireLen <= 0 {
		return 0
	}
	return (wireLen + PageSize - 1) / PageSize
}
