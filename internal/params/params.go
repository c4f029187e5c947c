// Package params holds every calibrated constant of the vRIO reproduction in
// one place. The defaults are fitted so that the *shapes* of the paper's
// evaluation hold (who wins, by roughly what factor, where crossovers fall);
// they are not claimed to match the authors' absolute testbed numbers.
// DESIGN.md §5 lists the anchors the defaults were fitted against.
package params

import (
	"bytes"
	"encoding/json"
	"fmt"

	"vrio/internal/sim"
)

// P is a full parameter set. Durations are simulated nanoseconds, bandwidths
// bits per second, sizes bytes.
type P struct {
	// --- virtualization event costs (drive Table 3 / Figure 5) ---

	// ExitCost is one synchronous guest→host exit (trap), including the
	// indirect cache/TLB damage the paper attributes to exits.
	ExitCost sim.Time
	// InjectCost is host-side virtual interrupt injection into a guest.
	InjectCost sim.Time
	// GuestIRQCost is the in-guest interrupt handler (paid in all models:
	// Table 3's "guest intrpts" column).
	GuestIRQCost sim.Time
	// HostIRQCost is a physical interrupt handled by a host core (Elvis and
	// baseline pay 2 per request-response; vRIO w/o poll pays 4 at the
	// IOhost).
	HostIRQCost sim.Time
	// ELIDeliveryCost is exitless interrupt delivery straight to the guest
	// (SRIOV+ELI and vRIO VMhosts).
	ELIDeliveryCost sim.Time
	// ContextSwitchCost is one context switch on any core, voluntary or not.
	ContextSwitchCost sim.Time
	// VhostWakeupCost is the baseline-only scheduler wakeup of a vhost I/O
	// thread (the baseline runs I/O threads and VCPUs "as Linux pleases").
	VhostWakeupCost sim.Time

	// --- per-packet / per-request CPU costs ---

	// GuestNetStackCost is the guest network stack's per-packet cost
	// (driver + protocol processing), charged on the VM core.
	GuestNetStackCost sim.Time
	// SidecoreServiceCost is Elvis's per-request sidecore service time:
	// virtio ring handling plus backend dispatch to the physical NIC.
	SidecoreServiceCost sim.Time
	// WorkerServiceCost is the vRIO IOhost worker's per-request service
	// time: NIC ring handling, decapsulation, steering and backend dispatch.
	// Figure 10 reports vRIO spends ~9% more cycles per packet than the
	// optimum; that premium is this constant plus encapsulation costs.
	WorkerServiceCost sim.Time
	// HostBackendCost is the baseline/Elvis host-side backend per-request
	// cost (tap device + bridge forwarding at the local host).
	HostBackendCost sim.Time
	// EncapCost is the vRIO transport driver's per-message encapsulation /
	// decapsulation cost on the IOclient side (§4.3's "added processing
	// time incurred by the vRIO driver").
	EncapCost sim.Time
	// CopyPenaltyPerByte (ns/byte) is charged when zero-copy is impossible
	// (e.g. MTU 9000 violates the 17-fragment rule of §4.4, or block reads
	// at the IOhost).
	CopyPenaltyPerByte float64

	// --- per-byte datapath costs (ns per payload byte; these produce the
	// Figure 9/10 throughput ordering and the Figure 13b saturation) ---

	// GuestTxPerByte is the guest stack's data-touching cost, paid by
	// every model on transmit.
	GuestTxPerByte float64
	// EncapPerByte is the vRIO transport driver's extra per-byte cost
	// (segmentation bookkeeping, §4.3) — the +9% of Figure 10.
	EncapPerByte float64
	// SidecorePerByte is the Elvis sidecore's per-byte cost (zero-copy
	// shared-memory path, hence small).
	SidecorePerByte float64
	// WorkerPerByte is the vRIO worker's per-byte cost (reassembly +
	// forwarding); it sets the ~13 Gbps/sidecore saturation of Fig 13b.
	WorkerPerByte float64
	// HostPerByte is the baseline vhost per-byte cost including its copies.
	HostPerByte float64
	// BaselineKickBytes: the baseline guest kicks (exits) once per this
	// many streamed bytes — small messages kick per message, bulk streams
	// kick repeatedly, producing Figure 10's +40%.
	BaselineKickBytes int

	// --- polling ---

	// PollInterval is the sidecore/worker poll loop period: the mean delay
	// before a posted request is noticed by an idle poller.
	PollInterval sim.Time
	// IRQCoalesceDelay is the NIC interrupt-coalescing delay in interrupt
	// mode (baseline, Elvis physical NICs, vRIO w/o poll).
	IRQCoalesceDelay sim.Time

	// --- fabric ---

	// WireLatency is one cable's propagation + PHY latency.
	WireLatency sim.Time
	// SwitchLatency is the rack switch's store-and-forward latency.
	SwitchLatency sim.Time
	// NICProcessCost is NIC-side per-packet handling (DMA + descriptor).
	NICProcessCost sim.Time
	// LinkBandwidth10G / LinkBandwidth40G are the two cable classes in §3.
	LinkBandwidth10G float64
	LinkBandwidth40G float64
	// FabricLinkLatency is one ToR↔spine cable's propagation + PHY latency.
	// Inter-rack fiber runs tens of meters, so this is ~10x a rack cable.
	// It is also the sharded simulator's lookahead bound: every path between
	// racks crosses at least one such wire, so no cross-rack influence can
	// arrive sooner (see internal/sim's ShardGroup).
	FabricLinkLatency sim.Time
	// SpineLatency is a spine switch's store-and-forward latency.
	SpineLatency sim.Time

	// --- frames (§4.3/§4.4) ---

	// MTU is the vRIO dedicated-channel MTU. The paper chooses 8100 so a
	// 64 KiB message reassembles into at most 17 4-KiB pages (zero copy).
	MTU int
	// RxRingSize is the IOhost communication-channel receive ring. §4.5:
	// growing it from 512 to 4096 eliminated in-the-wild drops.
	RxRingSize int

	// --- transport reliability (§4.5) ---

	// RetransmitTimeout is the initial block-request timeout (10 ms),
	// doubled on each expiry.
	RetransmitTimeout sim.Time
	// MaxRetransmits is the give-up threshold, after which the transport
	// raises a device error.
	MaxRetransmits int

	// --- block devices ---

	// RamdiskLatency is one 4 KiB ramdisk access.
	RamdiskLatency sim.Time
	// SectorSize is the block-device sector alignment unit.
	SectorSize int
	// BlockServiceCost is the host/IOhost per-request block backend cost.
	BlockServiceCost sim.Time

	// --- guest OS scheduler (Figure 14's crossover) ---

	// TimesliceMin is the minimum run time before a wakeup may preempt the
	// running thread (CFS-like minimum granularity).
	TimesliceMin sim.Time

	// MigrationDowntime is the live-migration blackout: the stop-and-copy
	// window during which the migrating VM is frozen (§4.6).
	MigrationDowntime sim.Time

	// --- energy (§4.6 "Energy": monitor/mwait on sidecores) ---

	// MwaitEnabled makes idle sidecores wait in a low-power state instead
	// of spinning; wakeups then cost MwaitWakeLatency extra.
	MwaitEnabled bool
	// MwaitWakeLatency is the extra delay to leave the low-power state.
	MwaitWakeLatency sim.Time
	// PowerBusy/PowerPoll/PowerMwait/PowerIdle are relative core power
	// draws (busy = 1.0). Spinning polls burn full power; mwait waits burn
	// a fraction; halted idle cores almost nothing.
	PowerBusy  float64
	PowerPoll  float64
	PowerMwait float64
	PowerIdle  float64

	// --- OS jitter (drives Table 4's tail latencies) ---

	// JitterInterval is the mean gap between background interference
	// events on every core (timer ticks, kernel housekeeping).
	JitterInterval sim.Time
	// JitterMean is the mean duration of one interference event.
	JitterMean sim.Time
	// JitterSpikeProb is the probability an event is a long spike
	// (SMI-class), of duration JitterSpike.
	JitterSpikeProb float64
	// JitterSpike is the long-spike duration.
	JitterSpike sim.Time

	// --- workloads ---

	// GenServiceCost is the load generator's per-transaction CPU time.
	GenServiceCost sim.Time
	// NetperfRRProcessCost is the netperf server's per-transaction CPU cost
	// inside the VM (on top of the guest net stack).
	NetperfRRProcessCost sim.Time
	// StreamChunk is the application write size for netperf stream; the
	// guest stack aggregates 64 B sends into TSO chunks.
	StreamChunk int
	// StreamPerChunkCost is the VM-side CPU cost to produce one stream
	// chunk.
	StreamPerChunkCost sim.Time
	// ApacheRequestCost is the in-VM CPU time to serve one HTTP request.
	ApacheRequestCost sim.Time
	// MemcachedRequestCost is the in-VM CPU time for one KV transaction.
	MemcachedRequestCost sim.Time
	// WebserverFileCount / WebserverMeanFileSize parameterize the Filebench
	// Webserver personality (30 K files, 28 KB mean).
	WebserverFileCount    int
	WebserverMeanFileSize int
	// WebserverThreads is the per-VM webserver thread count (4).
	WebserverThreads int
	// WebserverOpCost is the guest CPU per 4 KiB chunk read (webserver
	// request processing amortized per chunk).
	WebserverOpCost sim.Time
	// WebserverOpenCost is the per-file open/close metadata cost.
	WebserverOpenCost sim.Time
	// WebserverLogWrite is the log-append size per served file.
	WebserverLogWrite int
	// FilebenchIOSize is Filebench's random I/O size (4 KiB).
	FilebenchIOSize int
	// FilebenchOpCost is the per-op guest CPU cost for Filebench
	// reader/writer threads.
	FilebenchOpCost sim.Time

	// --- interposition ---

	// AESPerByteCost is the sidecore CPU cost per encrypted byte
	// (AES-256 via standard kernel APIs, §5 "Load Imbalance").
	AESPerByteCost sim.Time
}

// Default returns the calibrated default parameter set. Callers own the
// returned value and may tweak fields before building a testbed.
func Default() P {
	return P{
		ExitCost:          1300 * sim.Nanosecond,
		InjectCost:        1000 * sim.Nanosecond,
		GuestIRQCost:      900 * sim.Nanosecond,
		HostIRQCost:       2600 * sim.Nanosecond,
		ELIDeliveryCost:   300 * sim.Nanosecond,
		ContextSwitchCost: 2200 * sim.Nanosecond,
		VhostWakeupCost:   1800 * sim.Nanosecond,

		GuestNetStackCost:   1800 * sim.Nanosecond,
		SidecoreServiceCost: 1400 * sim.Nanosecond,
		WorkerServiceCost:   2000 * sim.Nanosecond,
		HostBackendCost:     1600 * sim.Nanosecond,
		EncapCost:           1400 * sim.Nanosecond,
		CopyPenaltyPerByte:  0.35, // ≈2.9 GB/s memcpy-limited path

		GuestTxPerByte:    0.45,
		EncapPerByte:      0.95,
		SidecorePerByte:   0.30,
		WorkerPerByte:     0.50,
		HostPerByte:       2.20,
		BaselineKickBytes: 800,

		PollInterval:     250 * sim.Nanosecond,
		IRQCoalesceDelay: 4 * sim.Microsecond,

		WireLatency:      450 * sim.Nanosecond,
		SwitchLatency:    1200 * sim.Nanosecond,
		NICProcessCost:   600 * sim.Nanosecond,
		LinkBandwidth10G: 10e9,
		LinkBandwidth40G: 40e9,

		FabricLinkLatency: 4 * sim.Microsecond,
		SpineLatency:      1500 * sim.Nanosecond,

		MTU:        8100,
		RxRingSize: 4096,

		RetransmitTimeout: 10 * sim.Millisecond,
		MaxRetransmits:    6,

		RamdiskLatency:   2500 * sim.Nanosecond,
		SectorSize:       512,
		BlockServiceCost: 1200 * sim.Nanosecond,

		TimesliceMin: 1 * sim.Microsecond,

		MigrationDowntime: 60 * sim.Millisecond,

		MwaitWakeLatency: 4 * sim.Microsecond,
		PowerBusy:        1.0,
		PowerPoll:        1.0,
		PowerMwait:       0.30,
		PowerIdle:        0.05,

		JitterInterval:  1 * sim.Millisecond,
		JitterMean:      12 * sim.Microsecond,
		JitterSpikeProb: 0.004,
		JitterSpike:     220 * sim.Microsecond,

		GenServiceCost:        2500 * sim.Nanosecond,
		NetperfRRProcessCost:  6400 * sim.Nanosecond,
		StreamChunk:           64000,
		StreamPerChunkCost:    560 * sim.Microsecond,
		ApacheRequestCost:     120 * sim.Microsecond,
		MemcachedRequestCost:  25 * sim.Microsecond,
		WebserverFileCount:    30000,
		WebserverMeanFileSize: 28 * 1024,
		WebserverThreads:      4,
		WebserverOpCost:       40 * sim.Microsecond,
		WebserverOpenCost:     40 * sim.Microsecond,
		WebserverLogWrite:     512,
		FilebenchIOSize:       4096,
		FilebenchOpCost:       5500 * sim.Nanosecond,

		AESPerByteCost: 8, // ≈125 MB/s: AES-256 via the kernel API without AES-NI offload
	}
}

// Validate reports the first nonsensical field, or nil.
func (p *P) Validate() error {
	check := func(name string, v sim.Time) error {
		if v < 0 {
			return fmt.Errorf("params: %s is negative (%v)", name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    sim.Time
	}{
		{"ExitCost", p.ExitCost},
		{"InjectCost", p.InjectCost},
		{"GuestIRQCost", p.GuestIRQCost},
		{"HostIRQCost", p.HostIRQCost},
		{"ELIDeliveryCost", p.ELIDeliveryCost},
		{"ContextSwitchCost", p.ContextSwitchCost},
		{"VhostWakeupCost", p.VhostWakeupCost},
		{"GuestNetStackCost", p.GuestNetStackCost},
		{"SidecoreServiceCost", p.SidecoreServiceCost},
		{"WorkerServiceCost", p.WorkerServiceCost},
		{"HostBackendCost", p.HostBackendCost},
		{"EncapCost", p.EncapCost},
		{"PollInterval", p.PollInterval},
		{"IRQCoalesceDelay", p.IRQCoalesceDelay},
		{"WireLatency", p.WireLatency},
		{"SwitchLatency", p.SwitchLatency},
		{"SpineLatency", p.SpineLatency},
		{"NICProcessCost", p.NICProcessCost},
		{"RetransmitTimeout", p.RetransmitTimeout},
		{"RamdiskLatency", p.RamdiskLatency},
		{"BlockServiceCost", p.BlockServiceCost},
		{"TimesliceMin", p.TimesliceMin},
	} {
		if err := check(c.name, c.v); err != nil {
			return err
		}
	}
	if p.MTU < 1500 || p.MTU > 9000 {
		return fmt.Errorf("params: MTU %d outside [1500, 9000]", p.MTU)
	}
	if p.RxRingSize <= 0 {
		return fmt.Errorf("params: RxRingSize must be positive")
	}
	if p.MaxRetransmits <= 0 {
		return fmt.Errorf("params: MaxRetransmits must be positive")
	}
	if p.GuestTxPerByte < 0 || p.EncapPerByte < 0 || p.SidecorePerByte < 0 ||
		p.WorkerPerByte < 0 || p.HostPerByte < 0 {
		return fmt.Errorf("params: per-byte costs must be non-negative")
	}
	if p.BaselineKickBytes <= 0 {
		return fmt.Errorf("params: BaselineKickBytes must be positive")
	}
	if p.SectorSize <= 0 || p.SectorSize&(p.SectorSize-1) != 0 {
		return fmt.Errorf("params: SectorSize %d must be a positive power of two", p.SectorSize)
	}
	if p.LinkBandwidth10G <= 0 || p.LinkBandwidth40G <= 0 {
		return fmt.Errorf("params: link bandwidths must be positive")
	}
	if p.FabricLinkLatency <= 0 {
		// Strictly positive, not merely non-negative: it is the conservative
		// lookahead bound, and a zero-latency fabric cannot be sharded.
		return fmt.Errorf("params: FabricLinkLatency must be positive (it bounds the shard lookahead)")
	}
	return nil
}

// UnmarshalOverrides applies a JSON object of field overrides on top of p,
// e.g. {"MTU": 1500, "RxRingSize": 512}. Unknown fields are rejected.
func (p *P) UnmarshalOverrides(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		return fmt.Errorf("params: bad overrides: %w", err)
	}
	return p.Validate()
}
