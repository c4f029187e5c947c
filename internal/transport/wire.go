// Package transport implements vRIO's transport driver (§4.1) and its wire
// protocol: the encapsulation that carries virtio requests between IOclients
// and the I/O hypervisor over the dedicated Ethernet channel, the block-I/O
// chunking for messages above the 64 KiB TSO limit (§4.3), and the
// retransmission machinery that makes block traffic reliable over lossy
// Ethernet (§4.5).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vrio/internal/trace"
)

// MsgType discriminates transport messages.
type MsgType uint8

// Message types. Net traffic is fire-and-forget (TCP/UDP above recover);
// block traffic is reliable via ReqID + retransmission.
const (
	MsgNetTx MsgType = iota + 1 // IOclient -> IOhost: guest transmitted a frame
	MsgNetRx                    // IOhost -> IOclient: frame destined for the guest
	MsgBlkReq
	MsgBlkResp
	MsgCtrlCreateDev // IOhost -> IOclient: create a paravirtual front-end
	MsgCtrlDestroyDev
	MsgCtrlAck // IOclient -> IOhost: control acknowledgement
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgNetTx:
		return "net-tx"
	case MsgNetRx:
		return "net-rx"
	case MsgBlkReq:
		return "blk-req"
	case MsgBlkResp:
		return "blk-resp"
	case MsgCtrlCreateDev:
		return "ctrl-create"
	case MsgCtrlDestroyDev:
		return "ctrl-destroy"
	case MsgCtrlAck:
		return "ctrl-ack"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Flow kinds for trace.FlowKey: they let the driver, endpoint, and I/O
// hypervisor hand trace spans across components using only wire-visible
// identifiers (the client's transport MAC in A, a ReqID/OrigID in B), so
// request tracing needs no wire-format change. Blk keys use OrigID where
// the id must survive retransmission (ReqID changes per attempt).
const (
	FlowBlkRoot uint8 = iota + 1 // guest_ring root span, by OrigID
	FlowBlkWire                  // in-flight blk-req wire span, by ReqID
	FlowBlkComp                  // blk-resp completion span, by OrigID
	FlowNetRoot                  // net-tx guest_ring root span, by ReqID
	FlowNetWire                  // in-flight net-tx wire span, by ReqID
	FlowNetRx                    // net-rx completion span, by endpoint ReqID
)

// Multi-queue block submission partitions the block id space per queue: the
// top byte of OrigID (and of every per-attempt ReqID) carries the submission
// queue, while the low 56 bits come from the driver's shared id counter, so
// ids stay unique across queues. Queue 0 leaves ids untouched, which keeps
// single-queue traffic byte-identical to the pre-multi-queue wire format.
const QueueShift = 56

// QueueOf extracts the submission queue a block id was stamped with.
func QueueOf(id uint64) uint8 { return uint8(id >> QueueShift) }

// NetFlow derives the fabric-global flow key of a guest Ethernet frame: its
// destination F-MAC folded to 48 bits — the same key the fabric wires record
// on their per-hop spans (they see the identical dst on the wire), so every
// span of one cross-rack request shares it in a merged export. Returns 0
// (no flow) for frames too short to carry an address.
func NetFlow(frame []byte) uint64 {
	if len(frame) < 6 {
		return 0
	}
	var dst [6]byte
	copy(dst[:], frame[:6])
	return trace.Key48(dst)
}

// Header is the transport header prepended to every message. ReqID is the
// §4.5 unique identifier: a fresh one is assigned per block transmission
// *and per retransmission*, so stale responses are recognizable. Chunk
// fields split block payloads larger than the 64 KiB TSO ceiling.
type Header struct {
	Type       MsgType
	DeviceType uint8 // virtio.DeviceType of the front-end
	DeviceID   uint16
	ReqID      uint64
	OrigID     uint64 // stable id across retransmissions (ReqID changes)
	Chunk      uint16
	ChunkCount uint16
	Length     uint32 // payload bytes in this message
}

// HeaderSize is the encoded header length.
const HeaderSize = 28

// Errors returned by the codec.
var (
	ErrShort   = errors.New("transport: message shorter than header")
	ErrBadType = errors.New("transport: unknown message type")
	ErrBadLen  = errors.New("transport: header length disagrees with payload")
)

// Encode serializes the header followed by payload.
func Encode(h Header, payload []byte) []byte {
	b := make([]byte, HeaderSize+len(payload))
	EncodeInto(b, h, payload)
	return b
}

// EncodeInto writes header and payload into b, which must be exactly
// HeaderSize+len(payload) long. The header's Length field is taken from the
// payload.
func EncodeInto(b []byte, h Header, payload []byte) {
	if len(b) != HeaderSize+len(payload) {
		panic(fmt.Sprintf("transport: EncodeInto buffer %d for payload %d", len(b), len(payload)))
	}
	h.Length = uint32(len(payload))
	h.put(b)
	copy(b[HeaderSize:], payload)
}

// put writes h, its Length field as given, into b[:HeaderSize].
func (h *Header) put(b []byte) {
	b[0] = uint8(h.Type)
	b[1] = h.DeviceType
	binary.LittleEndian.PutUint16(b[2:], h.DeviceID)
	binary.LittleEndian.PutUint64(b[4:], h.ReqID)
	binary.LittleEndian.PutUint64(b[12:], h.OrigID)
	binary.LittleEndian.PutUint16(b[20:], h.Chunk)
	binary.LittleEndian.PutUint16(b[22:], h.ChunkCount)
	binary.LittleEndian.PutUint32(b[24:], h.Length)
}

// Decode parses a transport message. The returned payload aliases b.
func Decode(b []byte) (Header, []byte, error) {
	if len(b) < HeaderSize {
		return Header{}, nil, ErrShort
	}
	h := Header{
		Type:       MsgType(b[0]),
		DeviceType: b[1],
		DeviceID:   binary.LittleEndian.Uint16(b[2:]),
		ReqID:      binary.LittleEndian.Uint64(b[4:]),
		OrigID:     binary.LittleEndian.Uint64(b[12:]),
		Chunk:      binary.LittleEndian.Uint16(b[20:]),
		ChunkCount: binary.LittleEndian.Uint16(b[22:]),
		Length:     binary.LittleEndian.Uint32(b[24:]),
	}
	if h.Type < MsgNetTx || h.Type > MsgCtrlAck {
		return Header{}, nil, fmt.Errorf("%w: %d", ErrBadType, b[0])
	}
	if int(h.Length) != len(b)-HeaderSize {
		return Header{}, nil, fmt.Errorf("%w: header %d, actual %d", ErrBadLen, h.Length, len(b)-HeaderSize)
	}
	return h, b[HeaderSize:], nil
}
