// Package core composes the substrates into the paper's four virtual I/O
// models (§2, Figure 4):
//
//   - baseline: KVM virtio — trap-and-emulate paravirtualization. Guests
//     kick via exits; vhost threads share an I/O core; interrupts are
//     injected and EOIs trap.
//   - elvis: sidecore paravirtualization — a dedicated per-host sidecore
//     polls the guests' virtqueues; interrupts to guests are exitless; the
//     physical NIC still interrupts the host.
//   - vrio: paravirtual remote I/O — the paper's contribution. Guests talk
//     through an SRIOV VF + ELI to the remote I/O hypervisor, which polls
//     its NICs (package iohyp).
//   - optimum: SRIOV+ELI device assignment — no interposition, used as the
//     performance ceiling.
//
// Workloads drive the model-independent Guest type; each model wires
// Guest's datapaths differently and pays different costs, which is the
// entire point of the evaluation.
package core

import (
	"vrio/internal/blockdev"
	"vrio/internal/ethernet"
	"vrio/internal/guestos"
	"vrio/internal/hypervisor"
	"vrio/internal/sim"
	"vrio/internal/virtio"
)

// ModelName identifies an I/O model in results tables.
type ModelName string

// The five evaluated configurations (vrio appears twice: with and without
// IOhost polling).
const (
	ModelBaseline   ModelName = "baseline"
	ModelElvis      ModelName = "elvis"
	ModelVRIO       ModelName = "vrio"
	ModelVRIONoPoll ModelName = "vrio-nopoll"
	ModelOptimum    ModelName = "optimum"
)

// Guest is a workload's handle on one VM (or bare-metal IOclient): compute,
// a paravirtual (or assigned) net device, and optionally a block device.
type Guest struct {
	// VM carries the VCPU core and the Table 3 event counters.
	VM *hypervisor.VM
	// Threads is the in-guest thread scheduler, used by Filebench-style
	// multi-threaded workloads (nil for single-flow workloads).
	Threads *guestos.VCPU

	netMAC ethernet.MAC

	// net is the guest's net device when its host serves the rings
	// (baseline, Elvis); ringSend and ringReap are the front end over it.
	net *hostNet

	// Model-wired hooks; set by the host implementations.
	sendNet  func(f ethernet.Frame)
	blkWrite func(sector uint64, data []byte, done func(error))
	blkRead  func(sector uint64, sectors int, done func([]byte, error))
	blkCPU   func(bytes int) sim.Time
	// blkSubmit posts a block request on the guest's ring, reserving room
	// for a reply of `sectors` sectors of data, and calls done with the
	// reply. Models whose host serves the ring (Elvis, baseline) set it and
	// use ringWrite/ringRead as blkWrite/blkRead.
	blkSubmit func(req []byte, sectors int, done func([]byte, error))
	// Multi-queue variants; set only by models that support per-queue block
	// submission (the vRIO transport). When unset, WriteBlockQ/ReadBlockQ
	// fall back to the single-queue hooks and the queue id is ignored.
	blkWriteQ func(queue uint8, sector uint64, data []byte, done func(error))
	blkReadQ  func(queue uint8, sector uint64, sectors int, done func([]byte, error))

	// onNetRx is the workload's receive handler.
	onNetRx func(f ethernet.Frame)

	// TxFrames/RxFrames count guest-observed traffic.
	TxFrames uint64
	RxFrames uint64
	TxBytes  uint64
	RxBytes  uint64
}

// MAC reports the guest's outward-facing (F) address.
func (g *Guest) MAC() ethernet.MAC { return g.netMAC }

// OnNetRx registers the workload's frame handler.
func (g *Guest) OnNetRx(fn func(f ethernet.Frame)) { g.onNetRx = fn }

// SendNet transmits a frame from inside the guest. The source address is
// filled with the guest's MAC.
func (g *Guest) SendNet(f ethernet.Frame) {
	f.Src = g.netMAC
	g.TxFrames++
	g.TxBytes += uint64(len(f.Payload))
	g.sendNet(f)
}

// receiveNet runs a received frame through the guest stack, which costs
// stack, and hands it to the workload. Frames too short to decode are
// dropped.
func (g *Guest) receiveNet(raw []byte, stack sim.Time) {
	f, err := ethernet.Decode(raw)
	if err != nil {
		return
	}
	g.VM.Compute(stack, func() {
		g.RxFrames++
		g.RxBytes += uint64(len(f.Payload))
		if g.onNetRx != nil {
			g.onNetRx(f)
		}
	})
}

// WriteBlock writes data at the given sector through the guest's
// paravirtual block device.
func (g *Guest) WriteBlock(sector uint64, data []byte, done func(error)) {
	if g.blkWrite == nil {
		panic("core: guest has no block device")
	}
	g.blkWrite(sector, data, done)
}

// ReadBlock reads sectors through the guest's paravirtual block device.
func (g *Guest) ReadBlock(sector uint64, sectors int, done func([]byte, error)) {
	if g.blkRead == nil {
		panic("core: guest has no block device")
	}
	g.blkRead(sector, sectors, done)
}

// WriteBlockQ writes through submission queue `queue` of the guest's block
// device. Models without multi-queue support ignore the queue id.
func (g *Guest) WriteBlockQ(queue uint8, sector uint64, data []byte, done func(error)) {
	if g.blkWriteQ != nil {
		g.blkWriteQ(queue, sector, data, done)
		return
	}
	g.WriteBlock(sector, data, done)
}

// ReadBlockQ reads through submission queue `queue` of the guest's block
// device. Models without multi-queue support ignore the queue id.
func (g *Guest) ReadBlockQ(queue uint8, sector uint64, sectors int, done func([]byte, error)) {
	if g.blkReadQ != nil {
		g.blkReadQ(queue, sector, sectors, done)
		return
	}
	g.ReadBlock(sector, sectors, done)
}

// HasBlock reports whether a block device is attached.
func (g *Guest) HasBlock() bool { return g.blkWrite != nil }

// BlockCPUCost reports the guest-side CPU consumed per block operation of
// the given size under this guest's I/O model (stack, kicks/exits,
// interrupt handling, encapsulation). Thread-scheduler workloads add it to
// their per-op compute so the VCPU feels the model's datapath cost.
func (g *Guest) BlockCPUCost(bytes int) sim.Time {
	if g.blkCPU == nil {
		return 0
	}
	return g.blkCPU(bytes)
}

// Compute runs application work on the guest's VCPU.
func (g *Guest) Compute(d sim.Time, fn func()) { g.VM.Compute(d, fn) }

// perByte converts a ns-per-byte rate into a duration for n bytes.
func perByte(rate float64, n int) sim.Time {
	return sim.Time(rate * float64(n))
}

// ringWrite is the block write front end over blkSubmit.
func (g *Guest) ringWrite(sector uint64, data []byte, done func(error)) {
	req := virtio.BlkReq{Type: virtio.BlkOut, Sector: sector, Data: data}.Append(nil)
	g.blkSubmit(req, 0, func(resp []byte, err error) {
		_, err = ringReply(resp, err)
		done(err)
	})
}

// ringRead is the block read front end over blkSubmit.
func (g *Guest) ringRead(sector uint64, sectors int, done func([]byte, error)) {
	req := virtio.BlkReq{Type: virtio.BlkIn, Sector: sector, Sectors: sectors}.Append(nil)
	g.blkSubmit(req, sectors, func(resp []byte, err error) { done(ringReply(resp, err)) })
}

// ringReply checks a ring reply's status byte and returns its data.
func ringReply(resp []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if len(resp) < 1 || resp[0] != virtio.BlkOK {
		return nil, blockdev.ErrDeviceFailed
	}
	return resp[1:], nil
}
