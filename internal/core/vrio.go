package core

import (
	"vrio/internal/bufpool"
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
	chNIC  *nic.NIC
	iohost ethernet.MAC

	// Tracer, when non-nil, is handed to every client's transport driver so
	// requests carry trace context from submission to completion. Set it
	// before AddClient.
	Tracer *trace.Tracer
}

// NewVRIOHost builds a VMhost whose channel NIC is cabled toward the
// IOhost with MAC iohost.
func NewVRIOHost(eng *sim.Engine, p *params.P, channelNIC *nic.NIC, iohost ethernet.MAC) *VRIOHost {
	return &VRIOHost{eng: eng, p: p, chNIC: channelNIC, iohost: iohost}
}

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

	// irqs holds the channel's interrupt batches until the guest's handler
	// runs deliverFn on the VCPU; txIRQFn is the TX-completion interrupt.
	irqs               nic.BatchQueue
	deliverFn, txIRQFn func()
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
			for _, f := range frames {
				vf.Pool().PutRaw(f)
			}
			return
		}
		c.irqs.Push(frames)
		if c.bare {
			hypervisor.HostIRQ(c.Guest.VM.Core, h.p, &c.Guest.VM.Counters, hypervisor.CounterHostIRQs, c.deliverFn)
		} else {
			c.Guest.VM.GuestIRQExitless(c.deliverFn)
		}
	})
	c.Port.OnMessage = func(_ ethernet.MAC, msg *bufpool.Frame, _ bool, _ int) {
		if err := c.Driver.DeliverFrame(msg); err != nil {
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
	vf := h.chNIC.AddVF(cfg.TransportMAC, nic.ModeInterrupt)
	c := &VRIOClient{
		Guest: newGuest(hypervisor.NewVM(h.p, cfg.ID, cfg.Core), h.p, cfg.NetMAC, vf.Pool()),
		host:  h,
		bare:  cfg.Bare,
		netID: uint16(2 * cfg.ID),
		blkID: uint16(2*cfg.ID + 1),
	}
	g := c.Guest
	c.deliverFn = func() { c.Port.HandleBatch(c.irqs.Pop()) }
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
	c.Driver.NetRx = func(_ uint16, frame *bufpool.Frame) {
		// Decapsulation already charged via the IRQ; the guest stack
		// processes the frame in the received message's own slab.
		g.receiveNet(frame, h.p.GuestNetStackCost+h.p.EncapCost)
	}
	// TX-completion interrupt from the channel VF, exitless.
	c.txIRQFn = func() {
		if cfg.Bare {
			hypervisor.HostIRQ(cfg.Core, h.p, &g.VM.Counters, hypervisor.CounterHostIRQs, nil)
		} else {
			g.VM.GuestIRQExitless(nil)
		}
	}
	g.txFn = func() {
		raw := g.txq.Pop()
		c.Driver.SendNet(uint8(virtio.DeviceNet), c.netID, raw)
		g.pool.PutRaw(raw)
		h.eng.After(h.p.NICProcessCost, c.txIRQFn)
	}
	g.sendNet = func(f ethernet.Frame) {
		if c.paused {
			return // migration blackout: the guest is suspended
		}
		// Guest stack + transport encapsulation (§4.3's added processing,
		// the +9% of Figure 10), then out the VF — no exit.
		g.queueSend(f, h.p.GuestNetStackCost+h.p.EncapCost+
			perByte(h.p.GuestTxPerByte+h.p.EncapPerByte, len(f.Payload)))
	}

	// Block front-end.
	if cfg.WithBlock {
		// Before a request leaves, the guest pays its stack and the
		// transport's encapsulation; a read's response data pays
		// decapsulation per byte, charged with the request for simplicity
		// (same VCPU either way). The completion is exitless.
		g.blkStackCost = func(bytes int) sim.Time {
			return h.p.GuestNetStackCost + h.p.EncapCost + perByte(h.p.EncapPerByte, bytes)
		}
		g.blkDoneCost = h.p.ELIDeliveryCost + h.p.GuestIRQCost
		g.blkPost = func(op *blkOp) {
			c.Driver.SendBlkGather(uint8(virtio.DeviceBlk), c.blkID, op.queue, op.req, op.data, op.wireFn)
		}
		g.blkBadStatus = virtio.ErrBadChain
	}
	return c
}

// NetDeviceID / BlkDeviceID report the transport device ids the cluster
// must register with the I/O hypervisor.
func (c *VRIOClient) NetDeviceID() uint16 { return c.netID }

// BlkDeviceID reports the block front-end's transport id.
func (c *VRIOClient) BlkDeviceID() uint16 { return c.blkID }
