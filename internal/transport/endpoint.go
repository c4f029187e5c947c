package transport

import (
	"fmt"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/sim"
	"vrio/internal/stats"
	"vrio/internal/trace"
)

// Endpoint is the IOhost-side transport peer: it reassembles chunked block
// requests, dispatches messages to the I/O hypervisor, sends (possibly
// chunked) responses, and pushes control commands to IOclients with a small
// ack/retry protocol.
//
// Buffer ownership: DeliverFrame takes each incoming message as a lease and
// Releases it once consumed. Block requests are handed to the BlkReq
// handler as a leased *bufpool.Frame — a single-chunk request is the
// message's own lease, viewed past the transport header (zero copy: at the
// paper's MTU, the received wire frame's slab); a multi-chunk request wraps
// the pooled reassembly buffer. The handler Releases the frame when the
// request's payload is no longer needed. Responses are only borrowed: the
// NIC gathers them into its frames.
type Endpoint struct {
	sender
	clk sim.Clock
	cfg Config

	reqAsm map[endpointKey]*chunkAsm
	// asmSeq orders partial assemblies for eviction: a retransmission uses
	// a fresh ReqID, so a superseded attempt's partial assembly would
	// otherwise linger forever.
	asmSeq uint64
	maxAsm int
	// Evictions counts abandoned partial assemblies.
	Evictions uint64

	asms *bufpool.List[chunkAsm]

	// NetTx is invoked when an IOclient's net front-end transmits a frame.
	// The frame is only valid for the duration of the call (its buffer is
	// recycled afterwards); a handler that needs it later must copy.
	NetTx func(src ethernet.MAC, deviceID uint16, frame []byte)
	// BlkReq is invoked with a fully reassembled block request, leased as a
	// pooled frame the handler must Release. The I/O hypervisor responds
	// via RespondBlk with the same header. Duplicate executions due to
	// retransmission are safe by §4.5's argument (the guest disk scheduler
	// guarantees one outstanding request per block).
	BlkReq func(src ethernet.MAC, h Header, req *bufpool.Frame)

	nextID uint64
	ctrl   map[uint64]*pendingCtrl

	// Counters: "net_tx", "blk_req", "blk_resp", "ctrl_sent", "ctrl_acked",
	// "ctrl_retries", "bad_msgs".
	Counters stats.Counters

	// Tracer records completion spans for the return path (blk-resp and
	// net-rx leaving the IOhost until the client driver delivers them). Nil
	// is the zero-cost disabled tracer.
	Tracer *trace.Tracer
}

type endpointKey struct {
	src   ethernet.MAC
	reqID uint64
}

type pendingCtrl struct {
	reqID   uint64
	msg     []byte
	dst     ethernet.MAC
	timeout sim.Time
	retries int
	timer   sim.TimerID
	done    func(acked bool)
}

// NewEndpoint builds the IOhost transport peer. clk is the timer service —
// the simulation engine or a real-wire wall clock (see NewDriver).
func NewEndpoint(clk sim.Clock, port Port, cfg Config) *Endpoint {
	if cfg.InitialTimeout <= 0 {
		cfg.InitialTimeout = DefaultConfig().InitialTimeout
	}
	if cfg.MaxRetransmits <= 0 {
		cfg.MaxRetransmits = DefaultConfig().MaxRetransmits
	}
	if cfg.MaxChunk <= 0 {
		cfg.MaxChunk = DefaultConfig().MaxChunk
	}
	if cfg.MaxReassembly <= 0 {
		cfg.MaxReassembly = DefaultConfig().MaxReassembly
	}
	return &Endpoint{
		sender: sender{port: port, maxChunk: cfg.MaxChunk},
		clk:    clk,
		cfg:    cfg,
		reqAsm: make(map[endpointKey]*chunkAsm),
		maxAsm: 1024,
		ctrl:   make(map[uint64]*pendingCtrl),
		asms:   bufpool.NewList("transport endpoint assemblies", func() *chunkAsm { return &chunkAsm{} }),
	}
}

func (e *Endpoint) getAsm(count int) *chunkAsm {
	a := e.asms.Get()
	e.asmSeq++
	a.reset(count, e.asmSeq, e.cfg.MaxReassembly)
	return a
}

func (e *Endpoint) recycleAsm(a *chunkAsm) {
	a.release(e.pool())
	e.asms.Put(a)
}

// Deliver ingests one transport message arriving from an IOclient, taking
// ownership of payload, a whole pooled buffer: it is DeliverFrame of a lease
// on it.
func (e *Endpoint) Deliver(src ethernet.MAC, payload []byte) error {
	return e.DeliverFrame(src, e.pool().Wrap(payload, payload))
}

// DeliverFrame ingests one transport message arriving from an IOclient,
// leased as the NIC's message port hands it over: it is Released once
// consumed, or lives on as a single-chunk block request's lease.
func (e *Endpoint) DeliverFrame(src ethernet.MAC, msg *bufpool.Frame) error {
	h, body, err := Decode(msg.B)
	if err != nil {
		e.Counters.Inc("bad_msgs", 1)
		msg.Release()
		return err
	}
	switch h.Type {
	case MsgNetTx:
		e.Counters.Inc("net_tx", 1)
		if e.NetTx != nil {
			e.NetTx(src, h.DeviceID, body)
		}
	case MsgBlkReq:
		e.deliverBlkReq(src, h, msg, body)
		return nil
	case MsgCtrlAck:
		e.ackCtrl(h.ReqID)
	default:
		e.Counters.Inc("bad_msgs", 1)
		err = fmt.Errorf("transport: endpoint received unexpected %v", h.Type)
	}
	msg.Release()
	return err
}

// deliverBlkReq handles one blk-req message. msg is the owned message
// lease; body is its payload view.
func (e *Endpoint) deliverBlkReq(src ethernet.MAC, h Header, msg *bufpool.Frame, body []byte) {
	if h.ChunkCount <= 1 {
		e.Counters.Inc("blk_req", 1)
		if e.BlkReq == nil {
			msg.Release()
			return
		}
		// Zero copy: the message's own lease, narrowed to the request; its
		// slab recycles when the handler Releases it.
		msg.B = body
		e.BlkReq(src, h, msg)
		return
	}
	if int(h.ChunkCount) > e.cfg.maxChunks() {
		// No legitimate MaxChunk stride yields this many chunks within the
		// reassembly cap — an untrusted peer probing for an allocation DoS.
		e.Counters.Inc("bad_msgs", 1)
		msg.Release()
		return
	}
	key := endpointKey{src, h.ReqID}
	asm := e.reqAsm[key]
	if asm == nil {
		if len(e.reqAsm) >= e.maxAsm {
			e.evictOldestAsm()
		}
		asm = e.getAsm(int(h.ChunkCount))
		e.reqAsm[key] = asm
	}
	if int(h.Chunk) >= asm.count || asm.count != int(h.ChunkCount) {
		e.Counters.Inc("bad_msgs", 1)
		msg.Release()
		return
	}
	complete := asm.add(e.pool(), int(h.Chunk), body)
	msg.Release() // body copied (or ignored); the message is consumed
	if !complete {
		return
	}
	delete(e.reqAsm, key)
	req := asm.assembled()
	buf := asm.take()
	e.recycleAsm(asm)
	e.Counters.Inc("blk_req", 1)
	if e.BlkReq != nil {
		e.BlkReq(src, h, e.pool().Wrap(buf, req))
	} else {
		e.pool().PutRaw(buf)
	}
}

func (e *Endpoint) evictOldestAsm() {
	var oldestKey endpointKey
	var oldest *chunkAsm
	for k, a := range e.reqAsm {
		if oldest == nil || a.seq < oldest.seq {
			oldest = a
			oldestKey = k
		}
	}
	if oldest != nil {
		delete(e.reqAsm, oldestKey)
		e.recycleAsm(oldest)
		e.Evictions++
	}
}

// SendNetRx delivers a network frame, gathered from its parts, to an
// IOclient front-end. The first part holds at least the frame's Ethernet
// header. The parts are only borrowed for the duration of the call.
func (e *Endpoint) SendNetRx(dst ethernet.MAC, deviceID uint16, frame ...[]byte) {
	e.nextID++
	if e.Tracer.Enabled() {
		// Flow-key the completion by the inner frame's destination F-MAC —
		// the same key the fabric hops recorded — so a cross-rack request's
		// final delivery joins its hops in the merged export.
		comp := e.Tracer.BeginFlow(trace.CatCompletion, "net-rx", 0, e.nextID, NetFlow(frame[0]))
		e.Tracer.Link(trace.FlowKey{Kind: FlowNetRx, A: trace.Key48(dst), B: e.nextID}, comp)
	}
	e.send(dst, Header{Type: MsgNetRx, DeviceID: deviceID, ReqID: e.nextID}, frame...)
}

// RespondBlk sends a (possibly chunked) block response gathered from resp's
// parts (a status, then a read's data), echoing the request's ReqID/OrigID
// so the client can match and de-duplicate it. The parts are only borrowed
// for the duration of the call.
func (e *Endpoint) RespondBlk(dst ethernet.MAC, req Header, resp ...[]byte) {
	e.Counters.Inc("blk_resp", 1)
	if e.Tracer.Enabled() {
		// Parent the completion under the request's guest_ring root so the
		// whole round trip renders on one track.
		mac := trace.Key48(dst)
		root := e.Tracer.Lookup(trace.FlowKey{Kind: FlowBlkRoot, A: mac, B: req.OrigID})
		comp := e.Tracer.BeginArg(trace.CatCompletion, "blk-resp", root, req.OrigID)
		e.Tracer.Link(trace.FlowKey{Kind: FlowBlkComp, A: mac, B: req.OrigID}, comp)
	}
	e.send(dst, Header{
		Type:       MsgBlkResp,
		DeviceType: req.DeviceType,
		DeviceID:   req.DeviceID,
		ReqID:      req.ReqID,
		OrigID:     req.OrigID,
	}, resp...)
}

// CreateDevice instructs an IOclient to instantiate a paravirtual front-end
// (§4.1: device creation is done via the I/O hypervisor). done, if non-nil,
// reports whether the client acked within the retry budget.
func (e *Endpoint) CreateDevice(dst ethernet.MAC, devType uint8, deviceID uint16, done func(acked bool)) {
	e.sendCtrl(dst, MsgCtrlCreateDev, devType, deviceID, done)
}

// DestroyDevice instructs an IOclient to tear a front-end down.
func (e *Endpoint) DestroyDevice(dst ethernet.MAC, deviceID uint16, done func(acked bool)) {
	e.sendCtrl(dst, MsgCtrlDestroyDev, 0, deviceID, done)
}

func (e *Endpoint) sendCtrl(dst ethernet.MAC, t MsgType, devType uint8, deviceID uint16, done func(acked bool)) {
	e.nextID++
	p := &pendingCtrl{
		reqID: e.nextID,
		msg: Encode(Header{
			Type:       t,
			DeviceType: devType,
			DeviceID:   deviceID,
			ReqID:      e.nextID,
			ChunkCount: 1,
		}, nil),
		dst:     dst,
		timeout: e.cfg.InitialTimeout,
		done:    done,
	}
	e.ctrl[p.reqID] = p
	e.Counters.Inc("ctrl_sent", 1)
	e.transmitCtrl(p)
}

func (e *Endpoint) transmitCtrl(p *pendingCtrl) {
	e.port.Send(p.dst, p.msg)
	p.timer = e.clk.AfterFunc(p.timeout, func() { e.expireCtrl(p) })
}

func (e *Endpoint) expireCtrl(p *pendingCtrl) {
	if e.ctrl[p.reqID] != p {
		return
	}
	if p.retries >= e.cfg.MaxRetransmits {
		delete(e.ctrl, p.reqID)
		if p.done != nil {
			p.done(false)
		}
		return
	}
	p.retries++
	p.timeout *= 2
	e.Counters.Inc("ctrl_retries", 1)
	e.transmitCtrl(p)
}

func (e *Endpoint) ackCtrl(reqID uint64) {
	p := e.ctrl[reqID]
	if p == nil {
		return // duplicate ack
	}
	delete(e.ctrl, reqID)
	e.clk.CancelTimer(p.timer)
	e.Counters.Inc("ctrl_acked", 1)
	if p.done != nil {
		p.done(true)
	}
}
