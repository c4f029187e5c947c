package core

import (
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/hypervisor"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/trace"
	"vrio/internal/transport"
	"vrio/internal/virtio"
)

// VRIOHost is the client (VMhost) side of the paper's contribution: the
// local hypervisor only assigns each guest an SRIOV VF on the channel NIC
// and gets out of the way (§4.1: "Henceforth, local hypervisors remain
// uninvolved and unaware of the I/O performed by their guests"). The
// guest's vRIO drivers — the paravirtual front-ends plus the transport
// driver — talk straight to the remote I/O hypervisor.
type VRIOHost struct {
	eng    *sim.Engine
	p      *params.P
	name   string
	chNIC  *nic.NIC
	iohost ethernet.MAC

	// Tracer, when non-nil, is handed to every client's transport driver so
	// requests carry trace context from submission to completion. Set it
	// before AddClient.
	Tracer *trace.Tracer
}

// NewVRIOHost builds a VMhost whose channel NIC is cabled toward the
// IOhost with MAC iohost.
func NewVRIOHost(eng *sim.Engine, p *params.P, name string, channelNIC *nic.NIC, iohost ethernet.MAC) *VRIOHost {
	return &VRIOHost{eng: eng, p: p, name: name, chNIC: channelNIC, iohost: iohost}
}

// Name reports the host name.
func (h *VRIOHost) Name() string { return h.name }

// VRIOClient is one provisioned IOclient: the guest plus its transport
// plumbing. The cluster layer uses TransportMAC to register the client's
// devices with the I/O hypervisor.
type VRIOClient struct {
	Guest  *Guest
	Driver *transport.Driver
	Port   *nic.MessagePort

	host   *VRIOHost
	bare   bool
	paused bool
	blkID  uint16
	netID  uint16

	// DroppedWhilePaused counts frames lost during a migration blackout.
	DroppedWhilePaused uint64
}

// Pause freezes the client for live migration (§4.6): transmissions stop
// and arriving frames are lost, exactly as during a real VM blackout. The
// §4.5 retransmission machinery keeps running, so in-flight block requests
// survive the pause.
func (c *VRIOClient) Pause() { c.paused = true }

// Resume unfreezes the client after migration.
func (c *VRIOClient) Resume() { c.paused = false }

// Paused reports the migration-blackout state.
func (c *VRIOClient) Paused() bool { return c.paused }

// AttachChannel moves the client's transport onto a new SRIOV VF — the
// destination VMhost's channel after a live migration (or a Tvirtio-class
// fallback NIC; §4.6: "Our vRIO implementation correctly runs using
// Tvirtio, Tsriov, and any other NIC"). iohost is the IOhost address on
// the new cable.
func (c *VRIOClient) AttachChannel(vf *nic.VF, iohost ethernet.MAC) {
	c.Port = nic.NewMessagePort(vf, c.host.p.MTU)
	c.wireChannel(vf)
	c.Driver.SetPort(c.Port)
	c.Driver.SetRemote(iohost)
}

// wireChannel binds interrupt delivery and message dispatch for the
// client's current port.
func (c *VRIOClient) wireChannel(vf *nic.VF) {
	h := c.host
	vf.OnInterrupt(func(frames [][]byte) {
		if c.paused {
			c.DroppedWhilePaused += uint64(len(frames))
			return
		}
		deliver := func() { c.Port.HandleBatch(frames) }
		if c.bare {
			hypervisor.HostIRQ(c.Guest.VM.Core, h.p, &c.Guest.VM.Counters, hypervisor.CounterHostIRQs, deliver)
		} else {
			c.Guest.VM.GuestIRQExitless(deliver)
		}
	})
	c.Port.OnMessage = func(_ ethernet.MAC, msg []byte, _ bool, _ int) {
		if err := c.Driver.Deliver(msg); err != nil {
			c.Guest.VM.Counters.Inc("bad_msgs", 1)
		}
	}
}

// TransportMAC reports the client's T-interface address (§4.6).
func (c *VRIOClient) TransportMAC() ethernet.MAC { return c.Port.LocalMAC() }

// VMConfig configures one IOclient.
type VMConfig struct {
	// ID is the VM identity (context-switch owner, device numbering).
	ID int
	// Core runs the VCPU (or the bare-metal OS).
	Core *cpu.Core
	// NetMAC is the front-end's outward-facing F address.
	NetMAC ethernet.MAC
	// TransportMAC is the SRIOV VF address on the channel (T address).
	TransportMAC ethernet.MAC
	// WithBlock attaches a remote paravirtual block device.
	WithBlock bool
	// Bare marks a bare-metal IOclient: no virtualization layer, so
	// interrupts arrive as plain host interrupts (§4.6 "Friendliness to
	// Heterogeneity").
	Bare bool
}

// AddClient provisions an IOclient (VM or bare-metal OS) on this host.
// Device ids: net = 2*ID, blk = 2*ID+1, unique per client.
func (h *VRIOHost) AddClient(cfg VMConfig) *VRIOClient {
	c := &VRIOClient{
		Guest: &Guest{VM: hypervisor.NewVM(h.eng, h.p, cfg.ID, cfg.Core), netMAC: cfg.NetMAC},
		host:  h,
		bare:  cfg.Bare,
		netID: uint16(2 * cfg.ID),
		blkID: uint16(2*cfg.ID + 1),
	}
	vf := h.chNIC.AddVF(cfg.TransportMAC, nic.ModeInterrupt)
	c.Port = nic.NewMessagePort(vf, h.p.MTU)
	c.Driver = transport.NewDriver(h.eng, c.Port, h.iohost, transport.Config{
		InitialTimeout: h.p.RetransmitTimeout,
		MaxRetransmits: h.p.MaxRetransmits,
	})
	c.Driver.Tracer = h.Tracer

	// Receive: the channel VF interrupts the guest exitless (SRIOV+ELI,
	// §4.2); the guest's transport driver decapsulates and calls the
	// front-ends. Bare-metal clients take a plain host interrupt instead.
	c.wireChannel(vf)

	// Net front-end.
	c.Driver.NetRx = func(_ uint16, raw []byte) {
		// Decapsulation already charged via the IRQ; the guest stack
		// processes the frame.
		c.Guest.receiveNet(raw, h.p.GuestNetStackCost+h.p.EncapCost)
	}
	c.Guest.sendNet = func(f ethernet.Frame) {
		if c.paused {
			c.DroppedWhilePaused++
			return // migration blackout: the guest is suspended
		}
		raw, _ := f.Encode(0) // an mtu of 0 skips the only check that fails
		// Guest stack + transport encapsulation (§4.3's added processing,
		// the +9% of Figure 10), then out the VF — no exit.
		cost := h.p.GuestNetStackCost + h.p.EncapCost +
			perByte(h.p.GuestTxPerByte+h.p.EncapPerByte, len(f.Payload))
		c.Guest.VM.Compute(cost, func() {
			c.Driver.SendNet(uint8(virtio.DeviceNet), c.netID, raw)
			// TX-completion interrupt from the channel VF, exitless.
			h.eng.After(h.p.NICProcessCost, func() {
				if cfg.Bare {
					hypervisor.HostIRQ(cfg.Core, h.p, &c.Guest.VM.Counters, hypervisor.CounterHostIRQs, nil)
				} else {
					c.Guest.VM.GuestIRQExitless(nil)
				}
			})
		})
	}

	// Block front-end.
	if cfg.WithBlock {
		// Guest-side per-op CPU: stack + transport encapsulation (fixed +
		// per byte) + exitless completion.
		c.Guest.blkCPU = func(bytes int) sim.Time {
			return h.p.GuestNetStackCost + h.p.EncapCost +
				perByte(h.p.EncapPerByte, bytes) +
				h.p.ELIDeliveryCost + h.p.GuestIRQCost
		}
		writeQ := func(queue uint8, sector uint64, data []byte, done func(error)) {
			req := virtio.BlkReq{Type: virtio.BlkOut, Sector: sector, Data: data}.Append(nil)
			cost := h.p.GuestNetStackCost + h.p.EncapCost + perByte(h.p.EncapPerByte, len(data))
			c.Guest.VM.Compute(cost, func() {
				c.Driver.SendBlkQ(uint8(virtio.DeviceBlk), c.blkID, queue, req, func(resp []byte, err error) {
					if err == nil && (len(resp) < 1 || resp[0] != virtio.BlkOK) {
						err = virtio.ErrBadChain
					}
					done(err)
				})
			})
		}
		readQ := func(queue uint8, sector uint64, sectors int, done func([]byte, error)) {
			req := virtio.BlkReq{Type: virtio.BlkIn, Sector: sector, Sectors: sectors}.Append(nil)
			// The response data pays decapsulation per byte, charged with
			// the request for simplicity (same VCPU either way).
			cost := h.p.GuestNetStackCost + h.p.EncapCost +
				perByte(h.p.EncapPerByte, sectors*h.p.SectorSize)
			c.Guest.VM.Compute(cost, func() {
				c.Driver.SendBlkQ(uint8(virtio.DeviceBlk), c.blkID, queue, req, func(resp []byte, err error) {
					if err != nil {
						done(nil, err)
						return
					}
					if len(resp) < 1 || resp[0] != virtio.BlkOK {
						done(nil, virtio.ErrBadChain)
						return
					}
					done(resp[1:], nil)
				})
			})
		}
		c.Guest.blkWriteQ = writeQ
		c.Guest.blkReadQ = readQ
		c.Guest.blkWrite = func(sector uint64, data []byte, done func(error)) {
			writeQ(0, sector, data, done)
		}
		c.Guest.blkRead = func(sector uint64, sectors int, done func([]byte, error)) {
			readQ(0, sector, sectors, done)
		}
	}
	return c
}

// NetDeviceID / BlkDeviceID report the transport device ids the cluster
// must register with the I/O hypervisor.
func (c *VRIOClient) NetDeviceID() uint16 { return c.netID }

// BlkDeviceID reports the block front-end's transport id.
func (c *VRIOClient) BlkDeviceID() uint16 { return c.blkID }
