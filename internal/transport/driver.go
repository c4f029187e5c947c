package transport

import (
	"errors"
	"fmt"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/sim"
	"vrio/internal/stats"
	"vrio/internal/trace"
)

// Port is the channel the transport driver sends messages through: an SRIOV
// VF in the normal configuration, or a traditional virtio NIC during live
// migration (§4.6 shows both work; "Our vRIO implementation correctly runs
// using Tvirtio, Tsriov, and any other NIC"). Send carries one complete
// transport message; frame-level segmentation (TSO) happens inside the NIC
// model on its way to the wire.
type Port interface {
	// Send transmits one message to dst. It must not fail synchronously;
	// loss is a property of the channel, handled by retransmission. The
	// payload is only borrowed for the duration of the call: the port copies
	// it into the frames or datagram it sends, so callers may reuse the
	// buffer afterwards.
	Send(dst ethernet.MAC, payload []byte)
	// LocalMAC reports this port's address (the T interface's MAC).
	LocalMAC() ethernet.MAC
}

// Pooler is implemented by ports backed by a shared buffer pool (the NIC
// message port). The driver and endpoint draw their encode/reassembly
// buffers from it so slabs circulate within one simulation cell.
type Pooler interface {
	BufPool() *bufpool.Pool
}

// Gatherer is implemented by ports whose NIC segments a message straight
// from its parts (the NIC message port): the driver and endpoint hand it
// the encoded transport header and the payload's parts, and the frames its
// TSO builds from them are the message's one copy. The parts are only
// borrowed for the duration of the call. A port without it, a real-wire
// carrier among them, is sent each message flattened into a pooled buffer.
type Gatherer interface {
	SendGather(dst ethernet.MAC, parts ...[]byte)
}

// sender is the sending half the Driver and the Endpoint share: their port,
// its pool, and the scratch each message's gather list is built in (a send
// is synchronous, so one scratch serves every message).
type sender struct {
	port     Port
	maxChunk int
	bp       *bufpool.Pool
	hdr      [HeaderSize]byte
	parts    [][]byte
}

// pool returns the buffer pool: the port's shared pool when it has one,
// else a private pool.
func (s *sender) pool() *bufpool.Pool {
	if s.bp == nil {
		if pp, ok := s.port.(Pooler); ok {
			s.bp = pp.BufPool()
		} else {
			s.bp = bufpool.New()
		}
	}
	return s.bp
}

// send transmits the payload gathered from parts to dst under header h, in
// chunks of at most maxChunk bytes (one chunk when the payload is empty);
// chunk i goes out as Chunk i of ChunkCount. The parts are only borrowed for
// the duration of the call.
func (s *sender) send(dst ethernet.MAC, h Header, parts ...[]byte) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	h.ChunkCount = uint16(max(1, (total+s.maxChunk-1)/s.maxChunk))
	for i := 0; i < int(h.ChunkCount); i++ {
		lo, hi := i*s.maxChunk, min((i+1)*s.maxChunk, total)
		h.Chunk, h.Length = uint16(i), uint32(hi-lo)
		h.put(s.hdr[:])
		s.parts = append(s.parts[:0], s.hdr[:])
		for _, p := range parts { // the parts' share of bytes [lo, hi)
			if a, b := max(lo, 0), min(hi, len(p)); a < b {
				s.parts = append(s.parts, p[a:b])
			}
			lo, hi = lo-len(p), hi-len(p)
		}
		if g, ok := s.port.(Gatherer); ok {
			g.SendGather(dst, s.parts...)
			continue
		}
		buf := s.pool().GetRaw(HeaderSize + int(h.Length))[:0]
		for _, p := range s.parts {
			buf = append(buf, p...)
		}
		s.port.Send(dst, buf)
		s.pool().PutRaw(buf)
	}
	clear(s.parts)
}

// Config holds the reliability knobs (§4.5).
type Config struct {
	// InitialTimeout is the first block-request retransmission timeout
	// (the paper uses 10 ms), doubled on every expiry.
	InitialTimeout sim.Time
	// MaxRetransmits is how many retransmissions are attempted before the
	// request is failed with a device error.
	MaxRetransmits int
	// MaxChunk caps the payload per transport message; block requests
	// larger than this are chunked (the 64 KiB TSO ceiling minus headers).
	MaxChunk int
	// MaxReassembly caps the bytes a chunked message may reassemble into.
	// On the simulated carrier this is a formality (the sim only produces
	// well-formed traffic); on a real-wire carrier the peer is untrusted,
	// and without the cap a single hostile header (ChunkCount 65535 × a
	// 64 KiB stride) would make the receiver allocate gigabytes. Messages
	// that would exceed it — or whose ChunkCount no legitimate MaxChunk
	// stride could produce within it — are dropped and counted.
	MaxReassembly int
}

// maxChunks bounds ChunkCount for untrusted messages: a legitimate sender
// strides non-final chunks at MaxChunk, so a message within MaxReassembly
// carries at most MaxReassembly/MaxChunk full chunks plus a final one.
func (c Config) maxChunks() int { return c.MaxReassembly/c.MaxChunk + 1 }

// DefaultConfig mirrors the paper's settings.
func DefaultConfig() Config {
	return Config{
		InitialTimeout: 10 * sim.Millisecond,
		MaxRetransmits: 6,
		MaxChunk:       ethernet.MaxMessage - HeaderSize,
		MaxReassembly:  16 << 20, // 16 MiB; far above any modeled request
	}
}

// ErrDeviceError is reported when a block request exhausts its
// retransmission budget (§4.5: "vRIO concludes that the request cannot be
// served and raises a device error").
var ErrDeviceError = errors.New("transport: device error (retransmission budget exhausted)")

// BlkCallback receives a block response or a device error. The response
// bytes are only valid for the duration of the call: the driver recycles
// the buffer when the callback returns, so a callback that needs the data
// later must copy it. The callback is also where the submitter takes back
// the request's buffers, which the driver holds until then.
type BlkCallback func(resp []byte, err error)

// Driver is the IOclient-side transport driver. It is the second driver
// layer of §4.1: front-ends hand it requests; it encapsulates, segments,
// retransmits, reassembles, and calls front-end handlers on completion.
//
// Ownership: a block request's buffers stay the submitter's, but the driver
// reads them until the request's callback runs, since a retransmission
// resends them; each (re)transmission gathers them with a transport header
// into the wire frames. A received message is leased to the driver, which
// Releases it once consumed or hands it on (a net-rx frame to NetRx).
//
// The steady-state datapath does not allocate: in-flight block bookkeeping
// and chunk assemblers are recycled through free lists, and chunked
// responses reassemble directly into one pooled buffer.
type Driver struct {
	sender
	clk    sim.Clock
	iohost ethernet.MAC
	cfg    Config

	nextID  uint64
	pending map[uint64]*pendingBlk // keyed by OrigID

	respAsm map[uint64]*chunkAsm // block responses being reassembled, by OrigID

	pbs  *bufpool.List[pendingBlk]
	asms *bufpool.List[chunkAsm]

	// NetRx is invoked for every frame the IOhost delivers to a net
	// front-end, and takes the frame over as a lease it Releases when done:
	// the received message's own buffer, viewed past the transport header,
	// so the frame reaches the guest without a copy.
	NetRx func(deviceID uint16, frame *bufpool.Frame)
	// CreateDev / DestroyDev are invoked for I/O-hypervisor control
	// commands (§4.1: "receiving commands from the I/O hypervisor to
	// create and destroy paravirtual devices").
	CreateDev  func(devType uint8, deviceID uint16)
	DestroyDev func(deviceID uint16)

	// Counters: "blk_sent", "blk_completed", "retransmits", "stale",
	// "device_errors", "net_tx", "net_rx", "ctrl".
	Counters stats.Counters

	// Tracer records per-request datapath spans; nil (the default) is the
	// zero-cost disabled tracer. The driver opens the guest_ring root span
	// at submission and the transport_wire span per transmission, linking
	// both under flow keys the IOhost side picks up.
	Tracer *trace.Tracer
}

type pendingBlk struct {
	origID   uint64
	curReqID uint64
	span     trace.SpanID // guest_ring root span, 0 when tracing is off
	deviceID uint16
	devType  uint8
	queue    uint8 // submission queue; stamps the top byte of every id
	// req and data are the request's header and payload, borrowed from the
	// submitter until done runs: every transmission gathers them anew.
	req, data []byte
	timeout   sim.Time
	retries   int
	timer     sim.TimerID
	done      BlkCallback
	// expireFn is the prebound timeout callback; it survives recycling, so
	// arming a retransmission timer does not allocate.
	expireFn func()
}

// chunkAsm reassembles a chunked payload directly into one pooled buffer.
// All non-final chunks of one message share a single stride (the sender's
// MaxChunk), so chunk i lands at offset i*stride; the final chunk may be
// shorter. Used only for multi-chunk messages (single-chunk payloads take
// a zero-copy fast path at both ends).
type chunkAsm struct {
	seq      uint64 // insertion order, for endpoint-side eviction
	count    int
	limit    int    // reassembly byte cap; add refuses to allocate past it
	stride   int    // len of non-final chunks; 0 until the first one arrives
	buf      []byte // pooled assembly buffer, stride*count capacity
	seen     []bool
	got      int
	final    []byte // holdover if the final chunk precedes stride discovery
	finalLen int
}

func (a *chunkAsm) reset(count int, seq uint64, limit int) {
	a.seq = seq
	a.count = count
	a.limit = limit
	a.stride = 0
	a.buf = nil
	a.got = 0
	a.final = nil
	a.finalLen = -1
	if cap(a.seen) < count {
		a.seen = make([]bool, count)
	} else {
		a.seen = a.seen[:count]
		for i := range a.seen {
			a.seen[i] = false
		}
	}
}

// add ingests chunk idx, copying body into the assembly buffer. It reports
// whether the message is now complete. Duplicate or inconsistent chunks
// are ignored.
func (a *chunkAsm) add(pool *bufpool.Pool, idx int, body []byte) bool {
	if idx < 0 || idx >= a.count || a.seen[idx] {
		return false
	}
	if len(body) > a.limit {
		return false // one chunk alone past the reassembly cap
	}
	if idx < a.count-1 {
		if a.stride == 0 {
			if len(body) == 0 {
				return false // degenerate non-final chunk; drop
			}
			if len(body)*a.count > a.limit {
				// A hostile stride×count would allocate past the cap; never
				// set the stride, so the assembly stays empty and cheap.
				return false
			}
			a.stride = len(body)
			a.buf = pool.GetRaw(a.stride * a.count)
			if a.finalLen >= 0 {
				copy(a.buf[a.stride*(a.count-1):], a.final[:a.finalLen])
				pool.PutRaw(a.final)
				a.final = nil
			}
		} else if len(body) != a.stride {
			return false // chunks of one generation share a stride
		}
		copy(a.buf[a.stride*idx:], body)
	} else {
		if a.stride != 0 {
			if len(body) > a.stride {
				return false
			}
			copy(a.buf[a.stride*idx:], body)
		} else {
			a.final = pool.GetRaw(len(body))
			copy(a.final, body)
		}
		a.finalLen = len(body)
	}
	a.seen[idx] = true
	a.got++
	return a.got == a.count
}

// assembled returns the contiguous payload; valid only once add reported
// completion. The buffer remains owned by the assembler (release or take
// recycles it).
func (a *chunkAsm) assembled() []byte {
	return a.buf[:a.stride*(a.count-1)+a.finalLen]
}

// take transfers ownership of the assembly buffer to the caller.
func (a *chunkAsm) take() []byte {
	b := a.buf
	a.buf = nil
	return b
}

// release returns any held pooled buffers.
func (a *chunkAsm) release(pool *bufpool.Pool) {
	if a.buf != nil {
		pool.PutRaw(a.buf)
		a.buf = nil
	}
	if a.final != nil {
		pool.PutRaw(a.final)
		a.final = nil
	}
}

// NewDriver builds a transport driver bound to its IOhost's MAC. clk is the
// timer service: the simulation engine for simulated carriers, a
// netwire.Loop wall clock for real sockets — the driver itself cannot tell
// the difference.
func NewDriver(clk sim.Clock, port Port, iohost ethernet.MAC, cfg Config) *Driver {
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
	d := &Driver{
		sender:  sender{port: port, maxChunk: cfg.MaxChunk},
		clk:     clk,
		iohost:  iohost,
		cfg:     cfg,
		pending: make(map[uint64]*pendingBlk),
		respAsm: make(map[uint64]*chunkAsm),
		asms:    bufpool.NewList("transport driver assemblies", func() *chunkAsm { return &chunkAsm{} }),
	}
	d.pbs = bufpool.NewList("transport pending blks", func() *pendingBlk {
		p := &pendingBlk{}
		p.expireFn = func() { d.expire(p) }
		return p
	})
	return d
}

// InFlightBlk reports how many block requests await completion.
func (d *Driver) InFlightBlk() int { return len(d.pending) }

// SetPort switches the channel the driver transmits through — the §4.6
// live-migration mechanism ("F can dynamically switch between channeling
// traffic via Tsriov and Tvirtio"). In-flight block requests keep their
// timers and simply retransmit through the new port.
func (d *Driver) SetPort(port Port) {
	d.port = port
	d.bp = nil // rebind to the new port's pool on next use
}

// Port reports the current channel.
func (d *Driver) Port() Port { return d.port }

// SetRemote points the driver at a different IOhost channel address (the
// destination VMhost's cable lands on a different IOhost NIC).
func (d *Driver) SetRemote(iohost ethernet.MAC) { d.iohost = iohost }

func (d *Driver) allocID() uint64 {
	d.nextID++
	return d.nextID
}

// tagID draws the next id and stamps the submission queue into its top byte
// (see QueueShift). All queues share one counter, so ids never collide.
func (d *Driver) tagID(queue uint8) uint64 {
	return uint64(queue)<<QueueShift | d.allocID()
}

// recyclePending returns a completed pendingBlk to the free list. The
// caller must have removed it from d.pending and canceled (or consumed)
// its timer.
func (d *Driver) recyclePending(p *pendingBlk) {
	p.req, p.data = nil, nil
	p.done = nil
	p.span = 0
	p.retries = 0
	p.queue = 0
	d.pbs.Put(p)
}

func (d *Driver) getAsm(count int) *chunkAsm {
	a := d.asms.Get()
	a.reset(count, 0, d.cfg.MaxReassembly)
	return a
}

func (d *Driver) recycleAsm(a *chunkAsm) {
	a.release(d.pool())
	d.asms.Put(a)
}

// dropAsm discards any partial reassembly for origID, returning its pooled
// buffers.
func (d *Driver) dropAsm(origID uint64) {
	if a := d.respAsm[origID]; a != nil {
		delete(d.respAsm, origID)
		d.recycleAsm(a)
	}
}

// SendNet transmits a guest network frame to the IOhost. Net traffic is
// deliberately unreliable (§4.5: TCP above retransmits; UDP may lose
// anyhow). The frame is only borrowed for the duration of the call.
func (d *Driver) SendNet(devType uint8, deviceID uint16, frame []byte) {
	d.Counters.Inc("net_tx", 1)
	id := d.allocID()
	if d.Tracer.Enabled() {
		// Root = submission occupancy (ends when the IOhyp worker finishes
		// forwarding); child wire span ends on IOhost message pickup.
		mac := trace.Key48(d.port.LocalMAC())
		// The frame's destination F-MAC keys the fabric-global flow, tying
		// this submission to the fabric-hop and remote-side spans of a
		// cross-rack request in the merged export.
		ring := d.Tracer.BeginFlow(trace.CatGuestRing, "net-tx", 0, id, NetFlow(frame))
		wire := d.Tracer.BeginArg(trace.CatWire, "net-tx", ring, id)
		d.Tracer.Link(trace.FlowKey{Kind: FlowNetRoot, A: mac, B: id}, ring)
		d.Tracer.Link(trace.FlowKey{Kind: FlowNetWire, A: mac, B: id}, wire)
	}
	d.send(d.iohost, Header{Type: MsgNetTx, DeviceType: devType, DeviceID: deviceID, ReqID: id}, frame)
}

// SendBlkQ transmits a block request reliably on submission queue `queue`.
// done is invoked exactly once, with the response payload or
// ErrDeviceError. req must remain valid until then (chunks alias it across
// retransmissions). The queue rides in the top byte of OrigID and of every
// per-attempt ReqID (QueueOf recovers it), so a multi-queue IOhost can steer
// each queue to its pinned worker without any wire-format change: queue 0
// is byte-identical to the single-queue wire. The driver imposes no depth
// limit per queue — callers (the guest workload) enforce QD by running
// closed loops.
func (d *Driver) SendBlkQ(devType uint8, deviceID uint16, queue uint8, req []byte, done BlkCallback) {
	d.SendBlkGather(devType, deviceID, queue, req, nil, done)
}

// SendBlkGather is SendBlkQ for a request held in two buffers, its encoded
// header req and its payload data (nil for none), which go on the wire as
// one message without ever being joined: the NIC's TSO gathers them into
// the frames. Both must remain valid until done runs.
func (d *Driver) SendBlkGather(devType uint8, deviceID uint16, queue uint8, req, data []byte, done BlkCallback) {
	if done == nil {
		panic("transport: SendBlkGather requires a completion callback")
	}
	d.Counters.Inc("blk_sent", 1)
	p := d.pbs.Get()
	p.origID = d.tagID(queue)
	p.deviceID = deviceID
	p.devType = devType
	p.queue = queue
	p.timeout = d.cfg.InitialTimeout
	p.done = done
	p.req, p.data = req, data
	d.pending[p.origID] = p
	if d.Tracer.Enabled() {
		p.span = d.Tracer.BeginArg(trace.CatGuestRing, "blk", 0, p.origID)
		d.Tracer.Link(trace.FlowKey{Kind: FlowBlkRoot, A: trace.Key48(d.port.LocalMAC()), B: p.origID}, p.span)
	}
	d.transmit(p)
}

// transmit sends p under a fresh ReqID, chunked at MaxChunk, and arms the
// timer.
func (d *Driver) transmit(p *pendingBlk) {
	p.curReqID = d.tagID(p.queue)
	// Chunks collected from a superseded attempt are discarded: the
	// response must reassemble from a single ReqID generation.
	d.dropAsm(p.origID)
	if d.Tracer.Enabled() {
		// One wire span per attempt; a lost attempt's span stays open and
		// exports as unfinished, which is exactly what happened to it.
		wire := d.Tracer.BeginArg(trace.CatWire, "blk-req", p.span, p.curReqID)
		d.Tracer.Link(trace.FlowKey{Kind: FlowBlkWire, A: trace.Key48(d.port.LocalMAC()), B: p.curReqID}, wire)
	}
	d.send(d.iohost, Header{
		Type:       MsgBlkReq,
		DeviceType: p.devType,
		DeviceID:   p.deviceID,
		ReqID:      p.curReqID,
		OrigID:     p.origID,
	}, p.req, p.data)
	p.timer = d.clk.AfterFunc(p.timeout, p.expireFn)
}

func (d *Driver) expire(p *pendingBlk) {
	if d.pending[p.origID] != p {
		return // completed in the meantime
	}
	if p.retries >= d.cfg.MaxRetransmits {
		delete(d.pending, p.origID)
		d.dropAsm(p.origID)
		d.Counters.Inc("device_errors", 1)
		d.Tracer.End(p.span) // device error closes the ring occupancy too
		done := p.done
		retries := p.retries
		origID := p.origID
		d.recyclePending(p)
		done(nil, fmt.Errorf("%w: request %d after %d attempts",
			ErrDeviceError, origID, retries+1))
		return
	}
	p.retries++
	p.timeout *= 2 // §4.5: doubled upon each subsequent expiration
	d.Counters.Inc("retransmits", 1)
	d.transmit(p)
}

// Deliver ingests one transport message arriving from the channel, taking
// ownership of payload, a whole pooled buffer: it is DeliverFrame of a lease
// on it.
func (d *Driver) Deliver(payload []byte) error {
	return d.DeliverFrame(d.pool().Wrap(payload, payload))
}

// DeliverFrame ingests one transport message arriving from the channel,
// leased as the NIC's message port hands it over. The driver Releases msg
// once the message is handled, or hands it on: a net-rx frame goes to NetRx
// as the same lease, viewed past the transport header.
func (d *Driver) DeliverFrame(msg *bufpool.Frame) error {
	h, body, err := Decode(msg.B)
	if err != nil {
		msg.Release()
		return err
	}
	switch h.Type {
	case MsgNetRx:
		d.Counters.Inc("net_rx", 1)
		if d.Tracer.Enabled() {
			d.Tracer.End(d.Tracer.Take(trace.FlowKey{
				Kind: FlowNetRx, A: trace.Key48(d.port.LocalMAC()), B: h.ReqID,
			}))
		}
		if d.NetRx != nil {
			msg.B = body
			d.NetRx(h.DeviceID, msg)
			return nil
		}
	case MsgBlkResp:
		d.deliverBlkResp(h, body)
	case MsgCtrlCreateDev:
		d.Counters.Inc("ctrl", 1)
		if d.CreateDev != nil {
			d.CreateDev(h.DeviceType, h.DeviceID)
		}
		d.send(d.iohost, Header{Type: MsgCtrlAck, ReqID: h.ReqID})
	case MsgCtrlDestroyDev:
		d.Counters.Inc("ctrl", 1)
		if d.DestroyDev != nil {
			d.DestroyDev(h.DeviceID)
		}
		d.send(d.iohost, Header{Type: MsgCtrlAck, ReqID: h.ReqID})
	default:
		err = fmt.Errorf("transport: client received unexpected %v", h.Type)
	}
	msg.Release()
	return err
}

// deliverBlkResp handles one blk-resp message. body aliases the caller's
// message buffer and is copied (or consumed synchronously) before return.
func (d *Driver) deliverBlkResp(h Header, body []byte) {
	p := d.pending[h.OrigID]
	if p == nil {
		d.Counters.Inc("stale", 1) // response to an already-completed request
		return
	}
	if h.ReqID != p.curReqID {
		// §4.5: a response to a superseded transmission is stale; a fresh
		// response for the current ReqID will (or did) arrive.
		d.Counters.Inc("stale", 1)
		return
	}
	count := int(h.ChunkCount)
	if count == 0 || int(h.Chunk) >= count || count > d.cfg.maxChunks() {
		d.Counters.Inc("stale", 1)
		return
	}

	var resp []byte
	var asm *chunkAsm
	if count == 1 {
		// Fast path: the response is this one message; hand the body
		// straight to the callback (it may not retain it).
		resp = body
	} else {
		asm = d.respAsm[h.OrigID]
		if asm == nil {
			asm = d.getAsm(count)
			d.respAsm[h.OrigID] = asm
		}
		if asm.count != count {
			d.Counters.Inc("stale", 1)
			return
		}
		if !asm.add(d.pool(), int(h.Chunk), body) {
			return
		}
		delete(d.respAsm, h.OrigID)
		resp = asm.assembled()
	}
	delete(d.pending, h.OrigID)
	d.clk.CancelTimer(p.timer)
	d.Counters.Inc("blk_completed", 1)
	if d.Tracer.Enabled() {
		d.Tracer.End(d.Tracer.Take(trace.FlowKey{
			Kind: FlowBlkComp, A: trace.Key48(d.port.LocalMAC()), B: h.OrigID,
		}))
		d.Tracer.End(p.span)
	}
	done := p.done
	d.recyclePending(p)
	done(resp, nil)
	if asm != nil {
		d.recycleAsm(asm)
	}
}
