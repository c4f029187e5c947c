package transport

import (
	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/link"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
)

// Rig wires one Driver to one Endpoint over the real datapath — pooled TSO
// segmentation, NIC receive rings, wire serialization, and reassembly — with
// both NICs in poll mode and the rig pumping the rings by hand. It exists
// for the datapath benchmarks and the zero-allocation guard test: after
// warmup, one net-tx round through Send is allocation-free, so the rig is
// the reference harness for measuring (and enforcing) that.
type Rig struct {
	Eng      *sim.Engine
	P        *params.P
	Pool     *bufpool.Pool
	Driver   *Driver
	Endpoint *Endpoint

	ClientVF   *nic.VF
	HostVF     *nic.VF
	ClientPort *nic.MessagePort
	HostPort   *nic.MessagePort

	// Cable is the 40G duplex joining the two NICs (AtoB: client->host).
	// Fault-injection tests attach TxFaults to its wires to exercise the
	// retransmission machinery over the real datapath.
	Cable *link.Duplex

	// NetTxMsgs counts messages arriving at the endpoint's NetTx handler
	// (the rig's default handler).
	NetTxMsgs uint64

	scratch [][]byte
}

// NewRig assembles the two-NIC testbed with default parameters: a client
// NIC and an IOhost NIC joined by a 40G cable, sharing one buffer pool.
func NewRig() *Rig { return NewRigConfig(Config{}) }

// NewRigConfig assembles the rig with transport-config overrides; zero
// fields keep the calibrated defaults. Fault-injection tests use a small
// MaxChunk so multi-chunk requests ride distinct wire frames.
func NewRigConfig(cfg Config) *Rig {
	def := params.Default()
	p := &def
	r := &Rig{Eng: sim.NewEngine(), P: p, Pool: bufpool.New()}

	nicCfg := nic.Config{
		ProcessCost:   p.NICProcessCost,
		CoalesceDelay: p.IRQCoalesceDelay,
		RxRingSize:    p.RxRingSize,
	}
	cable := link.NewDuplex(r.Eng, p.LinkBandwidth40G, p.WireLatency)
	r.Cable = cable
	clientNIC := nic.New(r.Eng, "rig-client", nicCfg, cable.AtoB)
	hostNIC := nic.New(r.Eng, "rig-host", nicCfg, cable.BtoA)
	clientNIC.SetPool(r.Pool)
	hostNIC.SetPool(r.Pool)
	cable.AtoB.SetReceiver(hostNIC)
	cable.BtoA.SetReceiver(clientNIC)

	clientMAC := ethernet.NewMAC(1)
	hostMAC := ethernet.NewMAC(2)
	r.ClientVF = clientNIC.AddVF(clientMAC, nic.ModePoll)
	r.HostVF = hostNIC.AddVF(hostMAC, nic.ModePoll)
	r.ClientPort = nic.NewMessagePort(r.ClientVF, p.MTU)
	r.HostPort = nic.NewMessagePort(r.HostVF, p.MTU)

	if cfg.InitialTimeout == 0 {
		cfg.InitialTimeout = p.RetransmitTimeout
	}
	if cfg.MaxRetransmits == 0 {
		cfg.MaxRetransmits = p.MaxRetransmits
	}
	r.Driver = NewDriver(r.Eng, r.ClientPort, hostMAC, cfg)
	r.Endpoint = NewEndpoint(r.Eng, r.HostPort, cfg)

	r.ClientPort.OnMessage = func(_ ethernet.MAC, msg *bufpool.Frame, _ bool, _ int) {
		_ = r.Driver.DeliverFrame(msg)
	}
	r.HostPort.OnMessage = func(src ethernet.MAC, msg *bufpool.Frame, _ bool, _ int) {
		_ = r.Endpoint.DeliverFrame(src, msg)
	}
	r.Endpoint.NetTx = func(ethernet.MAC, uint16, []byte) {
		r.NetTxMsgs++
	}
	// Default block behaviour: echo the request (the benchmark's round
	// trip). RespondBlk borrows req.B, so releasing right after is safe.
	r.Endpoint.BlkReq = func(src ethernet.MAC, h Header, req *bufpool.Frame) {
		r.Endpoint.RespondBlk(src, h, req.B)
		req.Release()
	}
	return r
}

// Step harvests both receive rings and advances the engine, interleaved,
// until the rig is quiescent. Both VFs are in poll mode, so the rig plays
// sidecore: rings are drained between every event batch (never letting a
// retransmit timer fire ahead of a response sitting in the ring), and
// pending-but-cancelled timers left behind by completed requests drain to
// nothing.
func (r *Rig) Step() {
	for {
		if r.pollOnce() {
			continue
		}
		t, ok := r.Eng.NextAt()
		if !ok {
			return
		}
		r.Eng.RunUntil(t)
	}
}

// pollOnce drains both receive rings once, reporting whether any frame moved.
func (r *Rig) pollOnce() bool {
	moved := false
	r.scratch = r.scratch[:0]
	if r.HostVF.PollInto(&r.scratch, 0) > 0 {
		moved = true
		r.HostPort.HandleBatch(r.scratch)
	}
	r.scratch = r.scratch[:0]
	if r.ClientVF.PollInto(&r.scratch, 0) > 0 {
		moved = true
		r.ClientPort.HandleBatch(r.scratch)
	}
	return moved
}
