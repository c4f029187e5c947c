// Package interpose implements the programmable I/O interposition layer —
// the raison d'être of interposable virtual I/O (§1 lists the services; §5
// "Load Imbalance" uses AES-256 encryption). Services transform payloads
// for real (the AES service genuinely encrypts) and report the CPU cost the
// sidecore/worker must be charged.
package interpose

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"

	"vrio/internal/sim"
)

// Direction distinguishes guest-bound from device-bound traffic.
type Direction int

// Directions.
const (
	// ToDevice is traffic leaving the guest (transmit / write).
	ToDevice Direction = iota
	// ToGuest is traffic entering the guest (receive / read).
	ToGuest
)

// Service is one interposition stage.
type Service interface {
	// Name identifies the service.
	Name() string
	// Process transforms payload, returning the (possibly new) payload,
	// the CPU cost to charge the processing core, and an error. A nil
	// payload result with nil error drops the I/O (firewalls do this).
	// Process must not write payload in place: a block read's payload is
	// lent straight from the device's store page (or a shared zero page),
	// and a received request or frame is a view of its wire frame, so a
	// service that transforms bytes returns them in a buffer of its own.
	Process(dir Direction, deviceID uint16, payload []byte) ([]byte, sim.Time, error)
}

// Chain applies services in order for ToDevice traffic and in reverse order
// for ToGuest traffic (so encrypt-then-filter decrypts after filtering on
// the way back).
type Chain struct {
	services []Service
}

// NewChain builds a chain.
func NewChain(services ...Service) *Chain {
	return &Chain{services: services}
}

// ErrDropped is returned when a service intentionally drops the I/O.
var ErrDropped = errors.New("interpose: dropped by policy")

// Process runs the chain. It returns the transformed payload and the total
// CPU cost. Dropped traffic returns ErrDropped.
func (c *Chain) Process(dir Direction, deviceID uint16, payload []byte) ([]byte, sim.Time, error) {
	var total sim.Time
	n := len(c.services)
	for i := range n {
		s := c.services[i]
		if dir == ToGuest {
			s = c.services[n-1-i]
		}
		out, cost, err := s.Process(dir, deviceID, payload)
		total += cost
		if err != nil {
			return nil, total, fmt.Errorf("interpose: %s: %w", s.Name(), err)
		}
		if out == nil {
			return nil, total, fmt.Errorf("interpose: %s: %w", s.Name(), ErrDropped)
		}
		payload = out
	}
	return payload, total, nil
}

// Null is a no-op service with zero cost (the no-interposition baseline).
type Null struct{}

// Name implements Service.
func (Null) Name() string { return "null" }

// Process implements Service.
func (Null) Process(_ Direction, _ uint16, payload []byte) ([]byte, sim.Time, error) {
	return payload, 0, nil
}

// AES encrypts device-bound traffic and decrypts guest-bound traffic with
// AES-256-CTR (a real cipher, not a stand-in), charging PerByteCost per
// payload byte — the seamless encryption of §5's imbalance experiment.
type AES struct {
	block       cipher.Block
	iv          [aes.BlockSize]byte
	PerByteCost sim.Time
}

// NewAES builds the service from a 32-byte key.
func NewAES(key []byte, perByteCost sim.Time) (*AES, error) {
	if len(key) != 32 {
		return nil, fmt.Errorf("interpose: AES-256 needs a 32-byte key, got %d", len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	a := &AES{block: block, PerByteCost: perByteCost}
	sum := sha256.Sum256(key)
	copy(a.iv[:], sum[:aes.BlockSize])
	return a, nil
}

// Name implements Service.
func (a *AES) Name() string { return "aes-256-ctr" }

// Process implements Service. CTR mode is symmetric, so both directions
// apply the same keystream; each payload is treated as an independent
// message (the per-device counter is derived from the IV).
func (a *AES) Process(_ Direction, _ uint16, payload []byte) ([]byte, sim.Time, error) {
	out := make([]byte, len(payload))
	cipher.NewCTR(a.block, a.iv[:]).XORKeyStream(out, payload)
	return out, sim.Time(len(payload)) * a.PerByteCost, nil
}

// Firewall drops device-bound payloads whose first bytes match any deny
// prefix — standing in for L2 packet filtering at the I/O hypervisor.
type Firewall struct {
	deny         [][]byte
	PerCheckCost sim.Time

	// Dropped counts payloads rejected.
	Dropped uint64
}

// NewFirewall builds a firewall with deny-prefix rules.
func NewFirewall(perCheckCost sim.Time, denyPrefixes ...[]byte) *Firewall {
	return &Firewall{deny: denyPrefixes, PerCheckCost: perCheckCost}
}

// Name implements Service.
func (f *Firewall) Name() string { return "firewall" }

// Process implements Service.
func (f *Firewall) Process(dir Direction, _ uint16, payload []byte) ([]byte, sim.Time, error) {
	for _, p := range f.deny {
		if len(payload) >= len(p) && string(payload[:len(p)]) == string(p) {
			f.Dropped++
			return nil, f.PerCheckCost, nil
		}
	}
	return payload, f.PerCheckCost, nil
}

// Meter accounts traffic per device — the metering/accounting feature SRIOV
// forfeits (§2).
type Meter struct {
	bytes   map[uint16]uint64
	packets map[uint16]uint64
}

// NewMeter builds an empty meter.
func NewMeter() *Meter {
	return &Meter{bytes: make(map[uint16]uint64), packets: make(map[uint16]uint64)}
}

// Name implements Service.
func (m *Meter) Name() string { return "meter" }

// Process implements Service.
func (m *Meter) Process(_ Direction, deviceID uint16, payload []byte) ([]byte, sim.Time, error) {
	m.bytes[deviceID] += uint64(len(payload))
	m.packets[deviceID]++
	return payload, 0, nil
}

// Bytes reports metered bytes for a device.
func (m *Meter) Bytes(deviceID uint16) uint64 { return m.bytes[deviceID] }

// Packets reports metered packets for a device.
func (m *Meter) Packets(deviceID uint16) uint64 { return m.packets[deviceID] }

// Dedup detects duplicate payloads by SHA-256 — block-level deduplication
// (§1). It never transforms data; it reports savings.
type Dedup struct {
	seen        map[[sha256.Size]byte]struct{}
	PerByteCost sim.Time

	// DupBytes counts bytes that were already stored.
	DupBytes uint64
}

// NewDedup builds an empty dedup index.
func NewDedup(perByteCost sim.Time) *Dedup {
	return &Dedup{seen: make(map[[sha256.Size]byte]struct{}), PerByteCost: perByteCost}
}

// Name implements Service.
func (d *Dedup) Name() string { return "dedup" }

// Process implements Service.
func (d *Dedup) Process(dir Direction, _ uint16, payload []byte) ([]byte, sim.Time, error) {
	cost := sim.Time(len(payload)) * d.PerByteCost
	if dir == ToDevice {
		h := sha256.Sum256(payload)
		if _, dup := d.seen[h]; dup {
			d.DupBytes += uint64(len(payload))
		} else {
			d.seen[h] = struct{}{}
		}
	}
	return payload, cost, nil
}
