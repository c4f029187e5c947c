// Package netwire carries §4.2 transport messages over real sockets. It is
// the wall-clock sibling of package link: a carrier implements the same
// frame-delivery contract as link.Wire — best-effort delivery of discrete
// frames between MAC-addressed endpoints, with every loss tallied in a
// link.DropStats — but the frames cross an operating-system socket instead
// of a simulated cable. A transport.Driver or transport.Endpoint runs over
// a carrier unmodified: the carrier is its Port, the carrier's Loop is its
// sim.Clock, and the shared bufpool.Pool still serves every buffer.
//
// The carrier is UDP, the paper's unreliable channel: one transport message
// maps to one datagram, so the network may genuinely lose, duplicate, or
// reorder messages and the §4.5 retransmission machinery earns its keep
// against a real adversary (optionally sharpened by a deterministic
// link.TxFault injector at the send hook).
//
// Every frame starts with a fixed 20-byte preamble that
// plays the role of the Ethernet header plus FCS in the simulated fabric:
// it names the source and destination MACs (so carriers can learn peer
// addresses the way a switch learns ports) and seals the whole frame under
// a CRC32 so in-flight corruption — injected or real — is detected and
// dropped at the receiver exactly like a simulated corrupt_fcs frame,
// leaving recovery to retransmission rather than delivering garbage.
package netwire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"vrio/internal/ethernet"
)

// Preamble layout (PreambleSize bytes, fixed):
//
//	[0:2)   magic 0x76 0x52 ("vR")
//	[2]     version (wireVersion)
//	[3]     kind
//	[4:10)  source MAC
//	[10:16) destination MAC
//	[16:20) CRC32-IEEE over bytes [0:16) and the payload, little-endian
const (
	PreambleSize = 20

	magic0      = 0x76
	magic1      = 0x52
	wireVersion = 1
)

// MaxDatagram is the largest UDP payload over IPv4 (65535 minus IP and UDP
// headers). A transport MaxChunk for the UDP carrier must keep
// PreambleSize + transport.HeaderSize + chunk within this bound.
const MaxDatagram = 65507

// Kind discriminates what a frame carries.
type Kind uint8

const (
	// KindData wraps one §4.2 transport message.
	KindData Kind = 1
	// KindHello announces a carrier to a peer; the peer learns the
	// source's address and answers with KindHelloAck.
	KindHello Kind = 2
	// KindHelloAck completes the hello handshake; receiving one means the
	// round trip works in both directions.
	KindHelloAck Kind = 3
)

// Preamble is the decoded frame envelope.
type Preamble struct {
	Kind Kind
	Src  ethernet.MAC
	Dst  ethernet.MAC
}

// Frame decode errors. ErrChecksum means the frame arrived but its bytes
// were damaged in flight (count it corrupt_fcs); everything else means the
// bytes never were a frame (count them runt).
var (
	ErrRunt     = errors.New("netwire: frame shorter than preamble")
	ErrMagic    = errors.New("netwire: bad preamble magic")
	ErrVersion  = errors.New("netwire: unsupported wire version")
	ErrKind     = errors.New("netwire: unknown frame kind")
	ErrChecksum = errors.New("netwire: frame checksum mismatch")
)

// SealFrame writes the preamble into b[:PreambleSize] and seals the
// checksum over the preamble and the payload already placed at
// b[PreambleSize:]. b must be at least PreambleSize long.
func SealFrame(b []byte, kind Kind, src, dst ethernet.MAC) {
	b[0], b[1], b[2], b[3] = magic0, magic1, wireVersion, byte(kind)
	copy(b[4:10], src[:])
	copy(b[10:16], dst[:])
	binary.LittleEndian.PutUint32(b[16:20], frameSum(b))
}

// frameSum computes the frame checksum: CRC32-IEEE over the first 16
// preamble bytes and the payload, skipping the checksum field itself.
func frameSum(b []byte) uint32 {
	sum := crc32.ChecksumIEEE(b[:16])
	return crc32.Update(sum, crc32.IEEETable, b[PreambleSize:])
}

// DecodeFrame validates one received frame and splits it into preamble and
// payload. The payload aliases b. Any error means the frame must be
// dropped; only ErrChecksum attests that a real frame was corrupted in
// flight.
func DecodeFrame(b []byte) (Preamble, []byte, error) {
	if len(b) < PreambleSize {
		return Preamble{}, nil, ErrRunt
	}
	if b[0] != magic0 || b[1] != magic1 {
		return Preamble{}, nil, ErrMagic
	}
	if b[2] != wireVersion {
		return Preamble{}, nil, ErrVersion
	}
	if binary.LittleEndian.Uint32(b[16:20]) != frameSum(b) {
		return Preamble{}, nil, ErrChecksum
	}
	var p Preamble
	p.Kind = Kind(b[3])
	if p.Kind < KindData || p.Kind > KindHelloAck {
		return Preamble{}, nil, ErrKind
	}
	copy(p.Src[:], b[4:10])
	copy(p.Dst[:], b[10:16])
	return p, b[PreambleSize:], nil
}
