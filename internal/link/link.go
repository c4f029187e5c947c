// Package link models the rack's networking fabric: point-to-point wires
// with bandwidth and propagation delay, and a store-and-forward switch with
// MAC learning. Frames are real encoded Ethernet bytes (package ethernet);
// the fabric only sees opaque frames, exactly like real cabling.
//
// A Wire optionally carries a TxFault injector (package fault supplies the
// implementations). When one is attached, every frame's FCS is computed at
// transmit time and re-verified at delivery, so in-flight corruption is
// detected and dropped exactly as a real NIC discards bad-CRC frames. Every
// way a frame can vanish — injected loss, corrupt FCS, runt at the switch —
// is tallied in a DropStats by reason; no frame disappears untallied.
package link

import (
	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/sim"
	"vrio/internal/trace"
)

// Receiver consumes frames arriving at the end of a wire.
type Receiver interface {
	ReceiveFrame(frame []byte)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(frame []byte)

// ReceiveFrame implements Receiver.
func (f ReceiverFunc) ReceiveFrame(frame []byte) { f(frame) }

// DropReason classifies every way the fabric can lose a frame.
type DropReason int

const (
	// DropRunt: the frame was too short to carry an Ethernet header.
	DropRunt DropReason = iota
	// DropCorruptFCS: the delivered bytes failed the FCS check (in-flight
	// corruption detected and discarded, as hardware would).
	DropCorruptFCS
	// DropInjected: a fault injector consumed the frame (simulated loss).
	DropInjected
	// DropNoRoute: a fabric switch had no path toward the destination —
	// a leaf with no uplinks, a frame for a remote rack arriving on an
	// uplink (split horizon forbids re-forwarding it up), or a spine with
	// no port registered for the destination's rack.
	DropNoRoute
	// DropHairpin: a switch had learned the destination behind the port
	// the frame arrived on, so it filtered the frame rather than send it
	// back out that port (standard bridge behaviour).
	DropHairpin

	// NumDropReasons sizes DropStats; new reasons append above.
	NumDropReasons
)

// String names the reason the way metrics label it.
func (r DropReason) String() string {
	switch r {
	case DropRunt:
		return "runt"
	case DropCorruptFCS:
		return "corrupt_fcs"
	case DropInjected:
		return "injected"
	case DropNoRoute:
		return "no_route"
	case DropHairpin:
		return "hairpin"
	}
	return "unknown"
}

// DropStats tallies dropped frames by reason. It is the single accounting
// helper every drop path in the fabric routes through, so conservation
// holds: frames sent == frames delivered + DropStats total.
type DropStats [NumDropReasons]uint64

// Count records one drop for the reason.
func (d *DropStats) Count(r DropReason) { d[r]++ }

// Get returns the tally for one reason.
func (d *DropStats) Get(r DropReason) uint64 { return d[r] }

// Merge folds another tally into this one — how the loadgen's per-worker
// carriers and the fabric's per-wire stats roll up to one breakdown.
func (d *DropStats) Merge(other *DropStats) {
	for i, n := range other {
		d[i] += n
	}
}

// Total sums drops across all reasons.
func (d *DropStats) Total() uint64 {
	var t uint64
	for _, n := range d {
		t += n
	}
	return t
}

// FaultAction is a TxFault's decision for one frame.
type FaultAction int

const (
	// FaultNone delivers the frame untouched.
	FaultNone FaultAction = iota
	// FaultDrop loses the frame in flight (it still occupied the wire).
	FaultDrop
	// FaultCorrupt means the injector flipped bits in place; the FCS
	// computed before the flip no longer matches, so the receive-side
	// check detects and drops the frame.
	FaultCorrupt
)

// FaultVerdict is what a TxFault does to one frame: an action, plus extra
// in-flight delay (jitter). Extra > 0 routes the frame off the FIFO fast
// path, so a delayed frame can overtake or be overtaken — reordering
// emerges from jitter exactly as on a real multi-path fabric.
type FaultVerdict struct {
	Action FaultAction
	Extra  sim.Time
}

// TxFault inspects (and may mutate) each frame entering a wire. Injectors
// must be deterministic: the same seed and call sequence must yield the
// same verdicts, because simulation output is byte-identical per seed.
type TxFault interface {
	Apply(frame []byte) FaultVerdict
}

// pendFrame is one in-flight frame on the FIFO path. When check is set
// (fault attached at send time), fcs holds the transmit-time CRC32 and
// delivery re-verifies it.
type pendFrame struct {
	b     []byte
	fcs   uint32
	check bool
}

// Wire is a unidirectional link. Frames serialize at the link's bandwidth
// (FIFO — a wire cannot interleave frames) and then propagate with fixed
// latency. A pair of Wires forms a full-duplex cable.
type Wire struct {
	eng   *sim.Engine
	bps   float64  // bits per second
	lat   sim.Time // propagation + PHY latency
	dst   Receiver
	busy  sim.Time // when the transmitter frees up
	fault TxFault  // nil on the zero-alloc fast path

	// pend holds frames in flight, drained FIFO by the prebound deliver
	// callback. Delivery times are strictly increasing per wire (departures
	// serialize and latency is constant), so FIFO pop order matches the
	// per-frame closures this replaces — and the datapath sheds one
	// allocation per frame. Jitter-delayed frames bypass this queue via a
	// per-frame closure, keeping the FIFO invariant intact.
	pend    sim.FIFO[pendFrame]
	deliver func()

	// remote, when set, diverts delivery across a shard boundary: instead
	// of scheduling on the local engine, the wire hands (deliverAt, frame)
	// to the hook, which posts it into the destination shard's inbox. The
	// frame passed to the hook is a private copy — the sender's pooled
	// buffer never crosses the boundary, because buffer pools are
	// single-threaded per shard. All wire accounting (including the FCS
	// verdict of a faulted frame) happens on the sending shard, so every
	// counter on this Wire stays owned by one goroutine.
	remote func(deliverAt sim.Time, frame []byte)

	// hop, when set, records a CatFabric span per frame on this wire — the
	// fabric cables of a multi-rack topology use it for per-hop timing. The
	// tracer belongs to the sending shard (counters and spans alike stay
	// single-goroutine); hopName labels the cable, e.g. "tor2-spine0".
	hop     *trace.Tracer
	hopName string

	// Bytes and Frames count traffic offered to the wire; Delivered counts
	// frames handed to the receiver; Corrupted counts frames an injector
	// damaged in flight (detected or not — with CRC32 they always are).
	Bytes     uint64
	Frames    uint64
	Delivered uint64
	Corrupted uint64

	// Drops tallies every frame this wire lost, by reason.
	Drops DropStats
}

// NewWire builds a wire delivering to dst.
func NewWire(eng *sim.Engine, bps float64, latency sim.Time, dst Receiver) *Wire {
	if bps <= 0 {
		panic("link: non-positive bandwidth")
	}
	if latency < 0 {
		panic("link: negative latency")
	}
	w := &Wire{eng: eng, bps: bps, lat: latency, dst: dst}
	w.deliver = func() {
		f := w.pend.Pop()
		w.handoff(f.b, f.fcs, f.check)
	}
	return w
}

// SetReceiver rebinds the wire's destination (used while assembling
// topologies).
func (w *Wire) SetReceiver(dst Receiver) { w.dst = dst }

// SetFault attaches a fault injector (nil detaches). With no injector the
// send path is untouched: no FCS work, no extra allocation.
func (w *Wire) SetFault(f TxFault) { w.fault = f }

// SetHopTracer arms per-hop span recording: each frame sent on this wire
// becomes one completed CatFabric span named name, from serialization start
// to modeled delivery, with the source MAC in Arg and the destination MAC
// folded into Flow so the hop joins its request's other spans in a merged
// export. A nil tracer (the disabled tracer) keeps Send on the untraced
// path — the guard in Send is the same inlined nil test the datapath uses.
func (w *Wire) SetHopTracer(t *trace.Tracer, name string) {
	w.hop = t
	w.hopName = name
}

// SetRemote marks the wire as crossing a shard boundary: post receives each
// surviving frame (as a private copy) with its delivery time, and is
// responsible for running RemoteDeliver on the destination shard at that
// time. The wire's serialization, busy-tracking, fault injection, and drop
// accounting all stay on the sending side.
func (w *Wire) SetRemote(post func(deliverAt sim.Time, frame []byte)) { w.remote = post }

// RemoteDeliver hands a frame to the receiver. It is the destination-shard
// half of a remote wire's delivery and touches no counters, so it is safe
// to run on a different goroutine than Send (the shard barrier orders them).
func (w *Wire) RemoteDeliver(frame []byte) {
	if w.dst != nil {
		w.dst.ReceiveFrame(frame)
	}
}

// sendRemote finishes a Send on a boundary wire: the fault verdict and the
// FCS check both resolve on the sending shard (a corrupted frame dies here,
// exactly as the receive-side check would have dropped it), and survivors
// are copied and posted for delivery on the far shard.
func (w *Wire) sendRemote(frame []byte, deliverAt sim.Time) {
	if w.fault != nil {
		fcs := ethernet.FCS(frame)
		v := w.fault.Apply(frame)
		switch v.Action {
		case FaultDrop:
			w.Drops.Count(DropInjected)
			return
		case FaultCorrupt:
			w.Corrupted++
		}
		deliverAt += v.Extra
		if ethernet.FCS(frame) != fcs {
			w.Drops.Count(DropCorruptFCS)
			return
		}
	}
	w.Delivered++
	cp := make([]byte, len(frame))
	copy(cp, frame)
	w.remote(deliverAt, cp)
}

// serialization returns the time to clock size bytes onto the wire.
func (w *Wire) serialization(size int) sim.Time {
	return sim.Time(float64(size*8) / w.bps * float64(sim.Second))
}

// Send transmits one encoded frame. Wire-level overhead (preamble/FCS/IFG)
// is included via ethernet.Frame.WireSize's convention: callers pass encoded
// frame bytes; 24 bytes of overhead are added here.
func (w *Wire) Send(frame []byte) {
	w.Frames++
	w.Bytes += uint64(len(frame))
	start := w.eng.Now()
	if w.busy > start {
		start = w.busy
	}
	depart := start + w.serialization(len(frame)+24)
	w.busy = depart
	deliverAt := depart + w.lat
	if w.hop.Enabled() {
		// The whole hop is determined at send time (FIFO serialization plus
		// fixed propagation), so record it as one completed span now. Frames
		// an injector later drops still occupied the wire; their hop span
		// simply has no downstream spans sharing its Flow.
		if f, err := ethernet.Decode(frame); err == nil {
			w.hop.Complete(trace.CatFabric, w.hopName,
				trace.Key48(f.Src), trace.Key48(f.Dst), start, deliverAt)
		}
	}
	if w.remote != nil {
		w.sendRemote(frame, deliverAt)
		return
	}
	if w.fault != nil {
		w.sendFaulted(frame, deliverAt)
		return
	}
	w.pend.Push(pendFrame{b: frame})
	w.eng.At(deliverAt, w.deliver)
}

// sendFaulted is the injected path: FCS is snapshotted before the injector
// may mutate the frame, loss is charged after the frame occupied the wire
// (the transmitter clocked it out; it died in flight), and jittered frames
// take a per-frame closure so they can reorder past FIFO traffic.
func (w *Wire) sendFaulted(frame []byte, deliverAt sim.Time) {
	fcs := ethernet.FCS(frame)
	v := w.fault.Apply(frame)
	switch v.Action {
	case FaultDrop:
		w.Drops.Count(DropInjected)
		return
	case FaultCorrupt:
		w.Corrupted++
	}
	if v.Extra > 0 {
		w.eng.At(deliverAt+v.Extra, func() { w.handoff(frame, fcs, true) })
		return
	}
	w.pend.Push(pendFrame{b: frame, fcs: fcs, check: true})
	w.eng.At(deliverAt, w.deliver)
}

// handoff completes delivery: verify FCS if armed, then hand the frame to
// the receiver. Every non-delivery routes through Drops.
func (w *Wire) handoff(frame []byte, fcs uint32, check bool) {
	if check && ethernet.FCS(frame) != fcs {
		w.Drops.Count(DropCorruptFCS)
		return
	}
	w.Delivered++
	if w.dst != nil {
		w.dst.ReceiveFrame(frame)
	}
}

// Utilization reports the carried load in bits/s over elapsed time.
func (w *Wire) Utilization() float64 {
	now := w.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(w.Bytes*8) / now.Seconds() / w.bps
}

// Duplex is a full-duplex cable: two wires between endpoints A and B.
type Duplex struct {
	AtoB *Wire
	BtoA *Wire
}

// NewDuplex builds a cable; receivers are attached later via SetReceiver.
func NewDuplex(eng *sim.Engine, bps float64, latency sim.Time) *Duplex {
	return &Duplex{
		AtoB: NewWire(eng, bps, latency, nil),
		BtoA: NewWire(eng, bps, latency, nil),
	}
}

// swPort is one switch port: the wire the switch transmits on, and whether
// the port faces the fabric core (uplink) rather than a host.
type swPort struct {
	tx     *Wire
	uplink bool
}

// Switch is a store-and-forward switch with MAC learning. It serves three
// roles with one forwarding pipeline:
//
//   - Classic rack switch (the seed behavior): host ports only, learned
//     switching with flooding for unknown destinations. Nothing below
//     changes a single-switch topology's output by a byte.
//   - Fabric leaf (ToR): SetLocator teaches it which rack owns each MAC.
//     Frames for remote racks ride a hash-chosen uplink; frames arriving ON
//     an uplink are never re-forwarded up (split horizon), so the fabric
//     cannot loop even with multiple spines. Remote MACs are routed by the
//     locator, not learned — cross-fabric MAC learning would let the first
//     frame of every flow flood through every rack.
//   - Fabric spine: SetRackPort registers which port reaches each rack; the
//     locator maps the destination MAC to its rack. A spine never floods
//     unicast — an unroutable frame is dropped and tallied DropNoRoute.
type Switch struct {
	eng     *sim.Engine
	latency sim.Time
	ports   []swPort
	fib     map[uint64]int // MAC.Key -> port

	// inflight holds frames inside the store-and-forward delay, drained by
	// the prebound egressFn, so no frame needs a closure of its own. The
	// delay is one constant, so egress instants are nondecreasing in
	// arrival order, and the engine breaks same-instant ties FIFO: the k-th
	// egress event is the k-th frame to arrive, on any port.
	inflight sim.FIFO[swFrame]
	egressFn func()

	// pool supplies the copies a flood sends: every receiver releases the
	// frame it is given, so no two may share one.
	pool *bufpool.Pool

	// Fabric role state, all nil/zero for a classic rack switch.
	rack      int                            // this leaf's rack id
	locate    func(ethernet.MAC) (int, bool) // MAC -> owning rack
	uplinks   []int                          // leaf: uplink port indices
	rackPorts map[int][]int                  // spine: rack -> ports

	// Forwarded and Flooded count frames by forwarding decision; Drops
	// tallies frames the switch discarded (runts that failed to decode,
	// frames for a destination behind their own ingress port, and fabric
	// frames with no route toward their destination). Every frame that
	// enters the switch lands in exactly one of the three.
	Forwarded uint64
	Flooded   uint64
	Drops     DropStats

	// OnDrop, when set, observes every switch drop as it is tallied — the
	// flight recorder hooks in here so a no-route storm leaves evidence even
	// with full tracing off. Runs on the switch's shard, synchronously.
	OnDrop func(DropReason)
}

// drop tallies a discarded frame and notifies the observer, if any.
func (s *Switch) drop(r DropReason) {
	s.Drops.Count(r)
	if s.OnDrop != nil {
		s.OnDrop(r)
	}
}

// NewSwitch builds a switch with the given store-and-forward latency.
func NewSwitch(eng *sim.Engine, latency sim.Time) *Switch {
	s := &Switch{eng: eng, latency: latency, fib: make(map[uint64]int)}
	s.egressFn = func() {
		f := s.inflight.Pop()
		s.egress(f.port, f.dst, f.frame)
	}
	return s
}

// SetPool attaches the cell's buffer pool, which flood copies come from. A
// switch without one lazily creates its own.
func (s *Switch) SetPool(p *bufpool.Pool) { s.pool = p }

// fanout sends one frame to several wires, in the order they are added.
// Each receiver but the last gets its own pooled copy (the last gets the
// frame itself), so every receiver may release what it is given.
type fanout struct {
	s     *Switch
	frame []byte
	prev  *Wire
}

func (f *fanout) add(w *Wire) {
	if f.prev != nil {
		if f.s.pool == nil {
			f.s.pool = bufpool.New()
		}
		f.prev.Send(f.s.pool.Clone(f.frame))
	}
	f.prev = w
}

func (f *fanout) done() {
	if f.prev != nil {
		f.prev.Send(f.frame)
	}
}

// swFrame is one frame inside the switch's store-and-forward delay: its
// ingress port, decoded destination, and encoded bytes.
type swFrame struct {
	port  int
	dst   ethernet.MAC
	frame []byte
}

// AttachPort plugs a host-facing cable into the switch: frames arriving on
// cable.AtoB enter the switch; the switch transmits to the device via
// cable.BtoA. It returns the port index.
func (s *Switch) AttachPort(cable *Duplex) int {
	idx := len(s.ports)
	s.ports = append(s.ports, swPort{tx: cable.BtoA})
	cable.AtoB.SetReceiver(ReceiverFunc(func(frame []byte) { s.ingress(idx, frame) }))
	return idx
}

// AttachUplink plugs a core-facing cable into a leaf with the opposite
// orientation: the leaf owns the "A" side (transmits on cable.AtoB, receives
// from cable.BtoA), so the same Duplex plugs into a spine's AttachPort on
// the "B" side. Returns the port index.
func (s *Switch) AttachUplink(cable *Duplex) int {
	idx := len(s.ports)
	s.ports = append(s.ports, swPort{tx: cable.AtoB, uplink: true})
	s.uplinks = append(s.uplinks, idx)
	cable.BtoA.SetReceiver(ReceiverFunc(func(frame []byte) { s.ingress(idx, frame) }))
	return idx
}

// SetLocator turns the switch into a fabric node of rack `rack` (spines pass
// -1): locate maps a MAC to the rack that owns it. MACs the locator does not
// know fall back to classic learned switching on a leaf.
func (s *Switch) SetLocator(rack int, locate func(ethernet.MAC) (int, bool)) {
	s.rack = rack
	s.locate = locate
}

// SetRackPort turns the switch into a spine: frames for MACs in `rack` leave
// via `port`. Multiple ports per rack load-balance by destination MAC hash.
func (s *Switch) SetRackPort(rack, port int) {
	if s.rackPorts == nil {
		s.rackPorts = make(map[int][]int)
	}
	s.rackPorts[rack] = append(s.rackPorts[rack], port)
}

// Uplinks reports how many uplink ports the switch has.
func (s *Switch) Uplinks() int { return len(s.uplinks) }

// macHash is the deterministic FNV-1a hash used to spread flows across
// equal-cost uplinks. It depends only on frame bytes, never on runtime
// state, so path choice is reproducible per seed.
func macHash(m ethernet.MAC) uint32 {
	h := uint32(2166136261)
	for _, b := range m {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

func (s *Switch) ingress(port int, frame []byte) {
	f, err := ethernet.Decode(frame)
	if err != nil {
		// Too short to carry a header: discard as hardware would, but
		// never silently — the tally keeps frame conservation auditable.
		s.drop(DropRunt)
		return
	}
	s.fib[f.Src.Key()] = port
	s.inflight.Push(swFrame{port, f.Dst, frame})
	s.eng.After(s.latency, s.egressFn)
}

func (s *Switch) egress(ingress int, dst ethernet.MAC, frame []byte) {
	if s.rackPorts != nil {
		s.egressSpine(ingress, dst, frame)
		return
	}
	if dst != ethernet.Broadcast {
		if s.locate != nil {
			if rack, ok := s.locate(dst); ok && rack != s.rack {
				s.egressRemote(ingress, dst, frame)
				return
			}
		}
		if out, ok := s.fib[dst.Key()]; ok {
			s.unicast(ingress, out, frame)
			return
		}
	}
	// Unknown destination or broadcast: flood all host ports but ingress.
	// A frame that came DOWN an uplink stays down (split horizon); a local
	// frame additionally rides one hash-chosen uplink so broadcasts reach
	// the rest of the fabric exactly once.
	s.Flooded++
	out := fanout{s: s, frame: frame}
	for i, p := range s.ports {
		if i != ingress && !p.uplink {
			out.add(p.tx)
		}
	}
	if len(s.uplinks) > 0 && !s.ports[ingress].uplink {
		// Suppress the uplink copy when the locator proves the destination
		// is local to this rack — the flood above already covers it.
		if rack, ok := s.locateRack(dst); !ok || rack != s.rack {
			out.add(s.ports[s.uplinks[macHash(dst)%uint32(len(s.uplinks))]].tx)
		}
	}
	out.done()
}

// locateRack wraps locate for callers that must tolerate a nil locator.
func (s *Switch) locateRack(m ethernet.MAC) (int, bool) {
	if s.locate == nil {
		return 0, false
	}
	return s.locate(m)
}

// unicast sends a frame out port out, or counts it as a hairpin drop when
// out is the port it came in on.
func (s *Switch) unicast(ingress, out int, frame []byte) {
	if out == ingress {
		s.drop(DropHairpin)
		return
	}
	s.Forwarded++
	s.ports[out].tx.Send(frame)
}

// egressRemote sends a unicast frame toward another rack via an uplink.
func (s *Switch) egressRemote(ingress int, dst ethernet.MAC, frame []byte) {
	if s.ports[ingress].uplink {
		// Split horizon: a remote-rack frame arriving on an uplink means a
		// spine misrouted it; re-forwarding up could loop, so drop loudly.
		s.drop(DropNoRoute)
		return
	}
	if len(s.uplinks) == 0 {
		s.drop(DropNoRoute)
		return
	}
	out := s.uplinks[macHash(dst)%uint32(len(s.uplinks))]
	s.Forwarded++
	s.ports[out].tx.Send(frame)
}

// egressSpine routes by the destination's rack. Spines never flood unicast.
func (s *Switch) egressSpine(ingress int, dst ethernet.MAC, frame []byte) {
	if dst == ethernet.Broadcast {
		s.Flooded++
		out := fanout{s: s, frame: frame}
		for i, p := range s.ports {
			if i != ingress {
				out.add(p.tx)
			}
		}
		out.done()
		return
	}
	if rack, ok := s.locateRack(dst); ok {
		if outs := s.rackPorts[rack]; len(outs) > 0 {
			s.unicast(ingress, outs[macHash(dst)%uint32(len(outs))], frame)
			return
		}
	}
	s.drop(DropNoRoute)
}
