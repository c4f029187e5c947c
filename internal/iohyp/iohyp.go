// Package iohyp implements the vRIO I/O hypervisor — the software that
// controls the IOhost (§4.1). Workers run on dedicated sidecores; an idle
// worker takes a batch of frames off a NIC receive ring, reassembles
// transport messages, and steers each virtual device's requests so that one
// worker owns a device for as long as it has unprocessed requests,
// preserving per-device ordering. Requests then flow through the device's
// interposition chain into its backend (the network uplink or a block
// device), and responses return to the IOclient over the dedicated channel.
package iohyp

import (
	"slices"

	"vrio/internal/blockdev"
	"vrio/internal/bufpool"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/interpose"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/stats"
	"vrio/internal/trace"
	"vrio/internal/transport"
	"vrio/internal/virtio"
)

// Mode selects the IOhost NIC handling discipline.
type Mode int

// Modes.
const (
	// ModePolling is normal vRIO: workers poll the NICs, no interrupts.
	ModePolling Mode = iota
	// ModeInterrupt is the "vrio w/o poll" ablation of §4.2/Figure 5:
	// NIC interrupts drive the IOhost, costing 4 extra interrupts per
	// request-response.
	ModeInterrupt
)

// client is a registered IOclient, resolved once per message from its
// transport MAC: the channel port its VMhost is cabled to, and its devices,
// each kind in registration order. Each device id is registered once per
// client (the front ends number net and block devices apart), and a client
// has a device or two, so finding one by id is a short scan.
type client struct {
	mac  ethernet.MAC
	port *nic.MessagePort
	net  []*netDevice
	blk  []*blkDevice
}

// netDev finds the client's net device id (nil for a nil client).
func (c *client) netDev(id uint16) *netDevice {
	if c == nil {
		return nil
	}
	for _, d := range c.net {
		if d.id == id {
			return d
		}
	}
	return nil
}

// blkDev finds the client's block device id (nil for a nil client).
func (c *client) blkDev(id uint16) *blkDevice {
	if c == nil {
		return nil
	}
	for _, d := range c.blk {
		if d.id == id {
			return d
		}
	}
	return nil
}

// steering resolves the steering state of a message for device id: the
// device's own, or for a block request its queue's. Nil when the client has
// no such device.
func (c *client) steering(id uint16, blkReq bool, origID uint64) (st *steerState, q int) {
	if d := c.netDev(id); d != nil {
		return &d.steer, 0
	}
	d := c.blkDev(id)
	if d == nil {
		return nil, 0
	}
	if blkReq {
		q = d.blkQueue(origID)
	}
	return &d.steer[q], q
}

// steerState is §4.1's ordering state for one device, or for one queue of a
// multi-queue block device: the worker that owns it while pending steered
// items are queued. A pinned state (a multi-queue device's queue) keeps its
// owner for the device's lifetime.
type steerState struct {
	owner   *Worker
	pending int
	pinned  bool
}

// netDevice is a registered paravirtual net front-end. Its back end serves
// three paths, each its own virtio.NetSite: the device itself for the frames
// it sends, local for frames another device sends it through the IOhost,
// and in for frames from the uplink.
type netDevice struct {
	h     *IOHypervisor
	c     *client
	id    uint16
	fMAC  ethernet.MAC // the front-end's outward-facing MAC (§4.6: "F")
	srv   virtio.NetServer
	local netLocal
	in    netIn
	steer steerState
	// keepSrc marks the stand-in for an unregistered sender, whose frames
	// leave with their own source address.
	keepSrc bool
}

// blkDevice is a registered paravirtual block front-end. A multi-queue
// device (queues > 1) gets NVMe-style queue-pair passthrough: each
// submission queue is pinned at registration time to one worker (its
// steering state's owner), its requests never migrate workers mid-flight,
// and any number of requests per queue can be outstanding at the backend.
// A single-queue device keeps the legacy least-loaded/device-owner
// steering.
type blkDevice struct {
	id  uint16
	srv virtio.BlkServer

	queues int
	// qdepth counts each queue's in-flight backend executions (a
	// retransmitted request can be at the backend twice).
	qdepth []int
	// steer holds each queue's steering state.
	steer []steerState
}

// blkQueue resolves the submission queue of a block id on this device,
// clamping out-of-range ids to queue 0 so a malformed header can never
// index past the tables.
func (d *blkDevice) blkQueue(origID uint64) int {
	if d.queues <= 1 {
		return 0
	}
	q := int(transport.QueueOf(origID))
	if q >= d.queues {
		return 0
	}
	return q
}

// IOHypervisor is the remote half of the split hypervisor.
type IOHypervisor struct {
	eng  *sim.Engine
	p    *params.P
	mode Mode
	rng  *sim.RNG

	workers []*Worker

	// Channel plumbing: one MessagePort per channel NIC; clients are
	// routed to the port their VMhost is cabled to.
	ports    []*nic.MessagePort
	endpoint *transport.Endpoint

	// Uplink is the NIC VF facing the rack switch for external traffic;
	// nil when all traffic is client-to-client.
	uplink *nic.VF

	// clients maps transport MACs (MAC.Key) to client records; order lists
	// the records in registration order, the order AnnounceAddresses
	// announces their F addresses in.
	clients map[uint64]*client
	order   []*client
	// cur is the client last served: the sender of the steered message
	// running now, or the destination of the response being sent. The
	// transport handlers take the sender's devices from it and
	// routerPort.Send its channel port, so neither looks the client up.
	cur       *client
	fib       map[uint64]*netDevice // F MAC (MAC.Key) -> device, for local delivery
	defaultCh *interpose.Chain

	// unknown is the steering state every device no client registered
	// shares, so their messages too keep their order.
	unknown steerState
	rrIdx   int

	// bp is the IOhost-side buffer pool (normally the first channel NIC's,
	// so wire buffers circulate IOhost-wide); steers recycles steered work
	// items so the steady-state ingress path does not allocate; calls
	// recycles block requests' sites likewise.
	bp     *bufpool.Pool
	steers *bufpool.List[steerItem]
	calls  *bufpool.List[blkCall]

	// txBatch/txPend implement TX-interrupt coalescing: while a steered work
	// item runs, txInterrupt calls are latched and at most one interrupt
	// fires when the item completes.
	txBatch bool
	txPend  int

	// failed marks a crashed IOhost (§4.6 fault tolerance): everything it
	// would receive or send is silently lost.
	failed bool

	// stallUntil is the end of the latest injected worker stall; while the
	// stall runs, every sidecore is pinned and ring traffic waits.
	stallUntil sim.Time

	// Counters: "msgs", "net_fwd_local", "net_fwd_uplink", "net_in",
	// "blk_reqs", "iohost_irqs", "interpose_drops", "copy_bytes".
	Counters stats.Counters

	// Tracer records iohyp_worker and blockdev spans, picking up the flow
	// keys the client driver linked. Nil is the zero-cost disabled tracer.
	Tracer *trace.Tracer
}

// Worker is one sidecore worker.
type Worker struct {
	hyp  *IOHypervisor
	Core *cpu.Core
	// scanArmed marks a scheduled ring scan.
	scanArmed bool
	// scratch is the reused frame batch for ring harvesting (PollInto).
	scratch [][]byte
	// scanFn is the prebound poll-timer callback (at most one in flight per
	// worker, guarded by scanArmed).
	scanFn func()
	// Processed counts messages this worker handled.
	Processed uint64
}

// Config assembles an I/O hypervisor.
type Config struct {
	Params *params.P
	Mode   Mode
	// Sidecores are the worker cores (one worker per core).
	Sidecores []*cpu.Core
	// Seed feeds poll-delay jitter.
	Seed uint64
	// Tracer, when non-nil, records datapath spans (shared with the
	// testbed's clients so flow keys hand spans across components).
	Tracer *trace.Tracer
}

// New builds the I/O hypervisor. Channel NICs and devices are attached
// afterwards.
func New(eng *sim.Engine, cfg Config) *IOHypervisor {
	if len(cfg.Sidecores) == 0 {
		panic("iohyp: need at least one sidecore")
	}
	h := &IOHypervisor{
		eng:       eng,
		p:         cfg.Params,
		mode:      cfg.Mode,
		rng:       sim.NewRNG(cfg.Seed ^ 0x10457),
		clients:   make(map[uint64]*client),
		fib:       make(map[uint64]*netDevice),
		defaultCh: interpose.NewChain(),
		Tracer:    cfg.Tracer,
	}
	h.steers = bufpool.NewList("iohyp steer items", func() *steerItem {
		it := &steerItem{h: h}
		it.fn = it.run
		return it
	})
	h.calls = bufpool.NewList("iohyp blk calls", func() *blkCall { return &blkCall{h: h} })
	for _, core := range cfg.Sidecores {
		if cfg.Mode == ModePolling {
			core.Polling = true
			// Whenever a sidecore drains, it returns to its poll loop.
			core.OnIdle = func() { h.armScan() }
		}
		w := &Worker{hyp: h, Core: core}
		w.scanFn = func() {
			w.scanArmed = false
			w.scan()
		}
		h.workers = append(h.workers, w)
	}
	h.endpoint = transport.NewEndpoint(eng, routerPort{h}, transport.Config{
		InitialTimeout: cfg.Params.RetransmitTimeout,
		MaxRetransmits: cfg.Params.MaxRetransmits,
	})
	h.endpoint.Tracer = cfg.Tracer
	h.endpoint.NetTx = h.handleNetTx
	h.endpoint.BlkReq = h.handleBlkReq
	return h
}

// Workers exposes the worker list (for utilization reporting).
func (h *IOHypervisor) Workers() []*Worker { return h.workers }

// BusyTime totals productive sidecore time across this IOhost's workers —
// the §5 "Load Imbalance" signal. Poll-loop spinning is excluded, so an idle
// polling IOhost reads ~0; metrics gauges and the rack rebalancer both read
// load through this one implementation.
func (h *IOHypervisor) BusyTime() sim.Time {
	var total sim.Time
	for _, w := range h.workers {
		total += w.Core.BusyTime()
	}
	return total
}

// Utilization is this worker's sidecore busy fraction since t=0.
func (w *Worker) Utilization() float64 { return w.Core.Utilization() }

// Utilization averages the worker utilizations — the IOhost's sidecore busy
// fraction.
func (h *IOHypervisor) Utilization() float64 {
	if len(h.workers) == 0 {
		return 0
	}
	var sum float64
	for _, w := range h.workers {
		sum += w.Utilization()
	}
	return sum / float64(len(h.workers))
}

// Fail crashes the IOhost (§4.6 "Fault Tolerance"): its sidecores stop
// serving and all traffic through it is lost. IOclients recover by
// re-attaching to a fallback IOhost; their §4.5 retransmission machinery
// carries in-flight block requests across.
func (h *IOHypervisor) Fail() { h.failed = true }

// Failed reports the crash state.
func (h *IOHypervisor) Failed() bool { return h.failed }

// StallWorkers freezes every sidecore worker for d, modelling host-side
// hiccups — memory pressure, SMIs, a hypervisor-level pause. The stall is
// charged as wasted (poll-kind) core time, so it pins the cores without
// inflating the BusyTime load signal the rebalancer reads; queued work and
// ring traffic wait, and squeezed receive rings may overflow. On a busy
// core the stall queues behind the in-flight work item, like a real
// preemption would. Overlapping stalls extend the window, not stack it.
func (h *IOHypervisor) StallWorkers(d sim.Time) {
	if h.failed || d <= 0 {
		return
	}
	if until := h.eng.Now() + d; until > h.stallUntil {
		h.stallUntil = until
	}
	for _, w := range h.workers {
		w.Core.Exec(cpu.NoOwner, cpu.KindPoll, d, nil)
	}
	h.Counters.Inc("stalls", 1)
}

// Stalled reports whether the workers are inside an injected stall window.
// The rack heartbeat treats a stalled IOhost as unresponsive: short stalls
// stay under the miss threshold, long ones get the host declared dead —
// the classic false-positive trade-off of timeout failure detectors.
func (h *IOHypervisor) Stalled() bool { return h.eng.Now() < h.stallUntil }

// AnnounceAddresses broadcasts one gratuitous frame per registered F
// address out the uplink, so the rack switch re-learns that this IOhost
// now speaks for them — the standard takeover announcement after a
// failover or migration.
func (h *IOHypervisor) AnnounceAddresses() {
	if h.uplink == nil || h.failed {
		return
	}
	for _, c := range h.order {
		for _, d := range c.net {
			if h.fib[d.fMAC.Key()] != d {
				continue
			}
			_ = h.uplink.SendFrame(ethernet.Frame{
				Dst:       ethernet.Broadcast,
				Src:       d.fMAC,
				EtherType: ethernet.EtherTypePlain,
			})
		}
	}
	h.Counters.Inc("announcements", uint64(len(h.fib)))
}

// ChannelDrops totals frames lost to full receive rings on the channel
// NICs (§4.5's failure mode).
func (h *IOHypervisor) ChannelDrops() uint64 {
	var total uint64
	for _, p := range h.ports {
		total += p.VF().Drops
	}
	return total
}

// routerPort routes transport sends to the channel port of the destination
// client.
type routerPort struct{ h *IOHypervisor }

// LocalMAC implements transport.Port. The IOhost speaks through many ports;
// the first port's MAC is the canonical identity.
func (r routerPort) LocalMAC() ethernet.MAC {
	if len(r.h.ports) == 0 {
		return ethernet.MAC{}
	}
	return r.h.ports[0].LocalMAC()
}

// BufPool implements transport.Pooler: the endpoint draws wire buffers from
// the channel NICs' shared pool so they circulate IOhost-wide.
func (r routerPort) BufPool() *bufpool.Pool { return r.h.bufPool() }

// bufPool resolves the IOhost buffer pool: the first channel port's NIC
// pool, or a private one when no NIC is attached (tests).
func (h *IOHypervisor) bufPool() *bufpool.Pool {
	if h.bp == nil {
		if len(h.ports) > 0 {
			h.bp = h.ports[0].BufPool()
		} else {
			h.bp = bufpool.New()
		}
	}
	return h.bp
}

// Send implements transport.Port as a one-part SendGather.
func (r routerPort) Send(dst ethernet.MAC, payload []byte) { r.SendGather(dst, payload) }

// SendGather implements transport.Gatherer: to the channel port of the
// client being served, or, for control traffic and for a client
// unregistered since, of the client dst names.
func (r routerPort) SendGather(dst ethernet.MAC, parts ...[]byte) {
	h := r.h
	if h.failed {
		return // a crashed IOhost sends nothing
	}
	c := h.cur
	if c == nil || c.port == nil || c.mac != dst {
		c = h.clients[dst.Key()]
	}
	if c == nil || c.port == nil {
		// Unknown client: nothing to do; the retransmission machinery (for
		// control traffic) will give up eventually.
		return
	}
	c.port.SendGather(dst, parts...)
}

// AttachChannelNIC registers a channel-facing VF. Frames arriving on it are
// picked up by workers (polling) or delivered by interrupts (the ablation).
func (h *IOHypervisor) AttachChannelNIC(vf *nic.VF) *nic.MessagePort {
	port := nic.NewMessagePort(vf, h.p.MTU)
	port.OnMessage = func(src ethernet.MAC, msg *bufpool.Frame, zeroCopy bool, fragments int) {
		h.ingressMessage(src, msg, zeroCopy)
	}
	h.ports = append(h.ports, port)
	h.attachVF(vf, port.HandleBatch)
	return port
}

// AttachUplink registers the switch-facing VF for external traffic.
func (h *IOHypervisor) AttachUplink(vf *nic.VF) {
	h.uplink = vf
	h.attachVF(vf, h.ingressUplink)
}

// attachVF sets a VF to the IOhost's mode: polled by idle workers, or in the
// no-poll ablation interrupting a worker, which pays for the interrupt and
// then hands the batch to handle. The batch is only lent to the interrupt
// handler, so the work item keeps a copy.
func (h *IOHypervisor) attachVF(vf *nic.VF, handle func(frames [][]byte)) {
	switch h.mode {
	case ModePolling:
		vf.SetMode(nic.ModePoll)
		vf.NotifyRx = func() { h.armScan() }
	case ModeInterrupt:
		vf.SetMode(nic.ModeInterrupt)
		vf.OnInterrupt(func(frames [][]byte) {
			frames = slices.Clone(frames)
			w := h.pickWorker()
			h.Counters.Inc("iohost_irqs", 1)
			w.Core.Exec(cpu.NoOwner, cpu.KindIRQ, h.p.HostIRQCost, func() { handle(frames) })
		})
	}
}

// client returns the record for a transport MAC, registering it on first
// use.
func (h *IOHypervisor) client(mac ethernet.MAC) *client {
	c := h.clients[mac.Key()]
	if c == nil {
		c = &client{mac: mac}
		h.clients[mac.Key()] = c
		h.order = append(h.order, c)
	}
	return c
}

// BindClient routes a client's transport MAC to a channel port (its cabled
// NIC).
func (h *IOHypervisor) BindClient(client ethernet.MAC, port *nic.MessagePort) {
	h.client(client).port = port
}

// RebindClient moves an IOclient to a new transport address and channel
// port — the IOhost side of a live migration between VMhosts that share
// this IOhost (§4.6). The client record, with its device registrations and
// their steering state, moves to the new address; the F-address forwarding
// table still points at the same devices. The client should be paused while
// this runs.
func (h *IOHypervisor) RebindClient(oldMAC, newMAC ethernet.MAC, port *nic.MessagePort) {
	if c := h.clients[oldMAC.Key()]; c != nil {
		delete(h.clients, oldMAC.Key())
		c.mac = newMAC
		h.clients[newMAC.Key()] = c
	}
	h.BindClient(newMAC, port)
	h.Counters.Inc("migrations", 1)
}

// UnregisterClient drops a client's record — its binding and every device
// registration — the source side of a re-home onto another IOhost (§4.6).
// The F addresses leave the forwarding table so this IOhost stops claiming
// them. Queued steered work still executes and drains its devices' steering
// state, but finds the record empty: its messages are served as an unknown
// sender's and its responses go nowhere. Safe to call on a crashed IOhost.
func (h *IOHypervisor) UnregisterClient(mac ethernet.MAC) {
	h.Counters.Inc("unregisters", 1)
	c := h.clients[mac.Key()]
	if c == nil {
		return
	}
	delete(h.clients, mac.Key())
	h.order = slices.DeleteFunc(h.order, func(o *client) bool { return o == c })
	for _, d := range c.net {
		if h.fib[d.fMAC.Key()] == d {
			delete(h.fib, d.fMAC.Key())
		}
	}
	c.port, c.net, c.blk = nil, nil, nil
}

// RegisterNetDevice creates a net front-end: fMAC is the device's
// outward-facing address. A nil chain means no interposition.
func (h *IOHypervisor) RegisterNetDevice(client ethernet.MAC, id uint16, fMAC ethernet.MAC, chain *interpose.Chain) {
	c := h.client(client)
	d := h.newNetDevice(c, id, fMAC, chain)
	c.net = append(c.net, d)
	h.fib[fMAC.Key()] = d
}

// newNetDevice builds a net device; a nil chain means no interposition.
func (h *IOHypervisor) newNetDevice(c *client, id uint16, fMAC ethernet.MAC, chain *interpose.Chain) *netDevice {
	if chain == nil {
		chain = h.defaultCh
	}
	d := &netDevice{h: h, c: c, id: id, fMAC: fMAC, srv: virtio.NetServer{Chain: chain, Device: id, Counters: &h.Counters}}
	d.local.d, d.in.d = d, d
	return d
}

// RegisterBlkDeviceMQ creates a block front-end with `queues` submission
// queues. Each queue is bound round-robin to a worker at registration time
// and keeps that affinity for the device's lifetime (queue-pair passthrough:
// a queue's requests never migrate workers mid-flight, so the worker's FIFO
// core preserves per-queue submission order). With queues > 1 the caller's
// backend must arbitrate range conflicts itself (wrap it in a
// blockdev.Scheduler): the guest-side one-outstanding-per-range guarantee no
// longer holds across queues. queues <= 1 is one queue.
func (h *IOHypervisor) RegisterBlkDeviceMQ(client ethernet.MAC, id uint16, backend blockdev.Backend, chain *interpose.Chain, queues int) {
	if chain == nil {
		chain = h.defaultCh
	}
	if queues < 1 {
		queues = 1
	}
	if queues > 256 {
		panic("iohyp: queue id is one byte; at most 256 queues per device")
	}
	d := &blkDevice{
		id: id,
		srv: virtio.BlkServer{
			Backend: backend, Chain: chain, Device: id,
			Cost: virtio.BlkCost{
				Service: h.p.BlockServiceCost,
				PerByte: h.p.CopyPenaltyPerByte,
				// §4.4: aligned inner portions are zero-copied; edges are
				// copied. The payload follows the transport and virtio-blk
				// headers in the received buffer.
				WriteCopy: func(n int) int {
					return blockdev.AlignmentCopy(transport.HeaderSize+virtio.BlkHdrSize, n, h.p.SectorSize)
				},
			},
			Pool:     h.bufPool(),
			Counters: &h.Counters,
		},
		queues: queues,
		qdepth: make([]int, queues),
		steer:  make([]steerState, queues),
	}
	if queues > 1 {
		for q := range d.steer {
			d.steer[q] = steerState{owner: h.workers[q%len(h.workers)], pinned: true}
		}
	}
	c := h.client(client)
	c.blk = append(c.blk, d)
}

// RegisterVolReplica creates a volume-replica block front-end: a multi-queue
// block device (see RegisterBlkDeviceMQ) that additionally serves the
// versioned BlkVolOut/BlkVolIn ops. backend must resolve to a Device with a
// ReplicaState attached (directly or through a blockdev.Scheduler); the
// version checks themselves run in the device. Rebuild source reads arrive
// through the same registration — they are ordinary BlkVolIn requests whose
// VolHdr demands the router's committed version.
func (h *IOHypervisor) RegisterVolReplica(client ethernet.MAC, id uint16, backend blockdev.Backend, chain *interpose.Chain, queues int) {
	h.RegisterBlkDeviceMQ(client, id, backend, chain, queues)
	h.blkDev(client, id).srv.Replica = true
}

// blkDev finds a client's registered block device (nil when unregistered).
func (h *IOHypervisor) blkDev(client ethernet.MAC, id uint16) *blkDevice {
	return h.clients[client.Key()].blkDev(id)
}

// BlkQueueDepth reports the in-flight backend executions on queue q of a
// client's block device (0 when unregistered or out of range).
func (h *IOHypervisor) BlkQueueDepth(client ethernet.MAC, id uint16, q int) int {
	d := h.blkDev(client, id)
	if d == nil || q < 0 || q >= d.queues {
		return 0
	}
	return d.qdepth[q]
}

// BlkQueueWorker reports the sidecore index queue q is pinned to, or -1 for
// single-queue devices (whose steering is dynamic).
func (h *IOHypervisor) BlkQueueWorker(client ethernet.MAC, id uint16, q int) int {
	d := h.blkDev(client, id)
	if d == nil || q < 0 || q >= d.queues || !d.steer[q].pinned {
		return -1
	}
	return slices.Index(h.workers, d.steer[q].owner)
}

// BlkInFlight totals in-flight backend executions across every registered
// block device and queue. Fault tests assert it returns to zero after a
// drain: stalls and crashes must empty the per-queue tables exactly once.
func (h *IOHypervisor) BlkInFlight() int {
	total := 0
	for _, c := range h.order {
		for _, d := range c.blk {
			for _, n := range d.qdepth {
				total += n
			}
		}
	}
	return total
}

// --- polling pickup ---

// armScan schedules an idle worker to take a batch after the mean poll
// detection delay. If every worker is busy, the batch waits until one
// drains (workers re-scan after each work item).
func (h *IOHypervisor) armScan() {
	if h.failed {
		return
	}
	w := h.idleWorker()
	if w == nil || w.scanArmed {
		return
	}
	w.scanArmed = true
	delay := h.rng.Range(1, h.p.PollInterval)
	if h.p.MwaitEnabled {
		// §4.6 "Energy": the sidecore waits in a low-power state via
		// monitor/mwait and pays the wake-up latency on new work.
		delay += h.p.MwaitWakeLatency
	}
	h.eng.After(delay, w.scanFn)
}

func (h *IOHypervisor) idleWorker() *Worker {
	for _, w := range h.workers {
		if !w.Core.Busy() && !w.scanArmed {
			return w
		}
	}
	return nil
}

// pickWorker returns the least-loaded worker, breaking ties round-robin so
// steady light load still spreads across the sidecores.
func (h *IOHypervisor) pickWorker() *Worker {
	n := len(h.workers)
	h.rrIdx++
	best := h.workers[h.rrIdx%n]
	for i := 1; i < n; i++ {
		w := h.workers[(h.rrIdx+i)%n]
		if w.Core.QueueLen() < best.Core.QueueLen() {
			best = w
		}
	}
	return best
}

// scan is the worker poll loop body: drain every ring in batches into the
// worker's reusable scratch, handing frames to the reassembly ports;
// complete messages are steered as work items. The scratch batch is safe to
// reuse across rings because HandleBatch/ingressUplink take over each frame
// before returning (a whole message's frame is its lease, fragments are
// copied into reassembly buffers, plain frames are decoded and re-encoded).
func (w *Worker) scan() {
	h := w.hyp
	found := false
	for _, port := range h.ports {
		w.scratch = w.scratch[:0]
		if port.VF().PollInto(&w.scratch, 64) > 0 {
			found = true
			port.HandleBatch(w.scratch)
		}
	}
	if h.uplink != nil {
		w.scratch = w.scratch[:0]
		if h.uplink.PollInto(&w.scratch, 64) > 0 {
			found = true
			h.ingressUplink(w.scratch)
		}
	}
	if found {
		// More may have arrived while we processed; re-arm.
		h.armScan()
	}
}

// --- ingress paths ---

// ingressMessage handles a reassembled transport message from a client,
// taking over its lease: the steered work item hands it to the endpoint.
func (h *IOHypervisor) ingressMessage(src ethernet.MAC, msg *bufpool.Frame, zeroCopy bool) {
	if h.failed {
		msg.Release()
		return
	}
	h.Counters.Inc("msgs", 1)
	n := len(msg.B)
	cost := h.p.WorkerServiceCost + sim.Time(h.p.WorkerPerByte*float64(n))
	if !zeroCopy {
		cost += sim.Time(h.p.CopyPenaltyPerByte * float64(n))
		h.Counters.Inc("copy_bytes", uint64(n))
	}
	// Peek at the device to steer before charging the worker. Multi-queue
	// block requests steer by (device, queue) to the queue's pinned worker —
	// passthrough affinity, decided before any worker is charged. Everything
	// else keeps the legacy device-owner steering.
	hdr, body, err := transport.Decode(msg.B)
	var id uint16
	if err == nil {
		id = hdr.DeviceID
	}
	c := h.clients[src.Key()]
	st, q := c.steering(id, err == nil && hdr.Type == transport.MsgBlkReq, hdr.OrigID)
	if st == nil {
		st = &h.unknown
	}
	// Pick up the trace context the client driver linked: the wire span ends
	// here (message picked up off the channel); the worker span the steered
	// work item opens is parented under the request's guest_ring root. Net-tx
	// roots measure submission-to-forwarded, so the root is taken and ended
	// once the worker is done with the frame.
	var parent, netRoot trace.SpanID
	var flow uint64
	name := "msg"
	if h.Tracer.Enabled() && err == nil {
		mac := trace.Key48(src)
		switch hdr.Type {
		case transport.MsgBlkReq:
			h.Tracer.End(h.Tracer.Take(trace.FlowKey{Kind: transport.FlowBlkWire, A: mac, B: hdr.ReqID}))
			parent = h.Tracer.Lookup(trace.FlowKey{Kind: transport.FlowBlkRoot, A: mac, B: hdr.OrigID})
			name = "blk-req"
		case transport.MsgNetTx:
			h.Tracer.End(h.Tracer.Take(trace.FlowKey{Kind: transport.FlowNetWire, A: mac, B: hdr.ReqID}))
			netRoot = h.Tracer.Take(trace.FlowKey{Kind: transport.FlowNetRoot, A: mac, B: hdr.ReqID})
			parent = netRoot
			name = "net-tx"
			// The message payload is the guest's ethernet frame; keying the
			// worker span by its destination F-MAC joins the egress worker to
			// the frame's fabric hops in a merged export.
			flow = transport.NetFlow(body)
		}
	}
	it := h.steers.Get()
	it.op, it.c, it.src, it.msg = steerOpDeliver, c, src, msg
	it.st, it.id, it.q = st, id, uint8(q)
	it.cost, it.parent, it.netRoot, it.flow, it.name = cost, parent, netRoot, flow, name
	h.steer(it)
}

// ingressUplink handles a batch of frames from the uplink, releasing each
// once it is consumed.
func (h *IOHypervisor) ingressUplink(frames [][]byte) {
	pool := h.uplink.Pool()
	for _, fr := range frames {
		h.ingressPlain(fr)
		pool.PutRaw(fr)
	}
}

// ingressPlain handles a frame from the uplink (external party -> some VM's
// F address). The frame is only borrowed.
func (h *IOHypervisor) ingressPlain(frame []byte) {
	if h.failed {
		return
	}
	f, err := ethernet.Decode(frame)
	if err != nil {
		h.Counters.Inc("bad_msgs", 1)
		return
	}
	dev := h.fib[f.Dst.Key()]
	if dev == nil {
		h.Counters.Inc("unknown_dst", 1)
		return
	}
	h.Counters.Inc("net_in", 1)
	dev.srv.Interpose(&dev.in, interpose.ToGuest, f)
}

// netIn is a device's virtio.NetSite for frames from the uplink: the chain's
// cost joins the steered net-in item that pushes the frame to the client.
type netIn struct {
	d    *netDevice
	cost sim.Time
}

// Charge implements virtio.NetSite.
func (s *netIn) Charge(cost sim.Time) { s.cost = cost }

// Forward implements virtio.NetSite: the frame is steered to a worker as a
// net-in item, which holds it encoded in a pooled slab.
func (s *netIn) Forward(f ethernet.Frame) {
	h, dev := s.d.h, s.d
	raw := f.EncodeTo(h.bufPool().GetRaw(f.Len()))
	it := h.steers.Get()
	it.op, it.dev, it.raw = steerOpNetIn, dev, raw
	it.st, it.id = &dev.steer, dev.id
	it.cost = h.p.WorkerServiceCost + h.p.EncapCost + s.cost
	s.cost = 0
	it.name = "net-in"
	if h.Tracer.Enabled() {
		// Inbound uplink frames are how cross-rack requests arrive; keying
		// the worker span by the destination F-MAC joins it to the request's
		// fabric hops in a merged export.
		it.flow = trace.Key48(f.Dst)
	}
	h.steer(it)
}

// txInterrupt charges the transmit-side interrupt in the no-poll ablation.
// Inside a steered work item (beginTxBatch/endTxBatch bracket) the interrupt
// is latched: however many responses the item emits, the client is
// interrupted at most once when the item completes.
func (h *IOHypervisor) txInterrupt() {
	if h.mode != ModeInterrupt {
		return
	}
	if h.txBatch {
		h.txPend++
		return
	}
	h.fireTxIRQ()
}

func (h *IOHypervisor) fireTxIRQ() {
	w := h.pickWorker()
	h.Counters.Inc("iohost_irqs", 1)
	w.Core.Exec(cpu.NoOwner, cpu.KindIRQ, h.p.HostIRQCost, nil)
}

// beginTxBatch opens a TX-interrupt coalescing window. Windows do not nest:
// steered items run as top-level events.
func (h *IOHypervisor) beginTxBatch() {
	h.txBatch = true
	h.txPend = 0
}

// endTxBatch closes the window, firing the single coalesced interrupt if any
// response was emitted inside it.
func (h *IOHypervisor) endTxBatch() {
	h.txBatch = false
	if h.txPend > 0 {
		h.txPend = 0
		h.fireTxIRQ()
	}
}

// Steered work item kinds.
const (
	steerOpDeliver = iota // hand a reassembled transport message to the endpoint
	steerOpNetIn          // push an uplink frame to a client as net-rx
)

// steerItem is one steered unit of work. Items are recycled through
// IOHypervisor.steers with a prebound run callback, so steady-state
// steering does not allocate.
type steerItem struct {
	h      *IOHypervisor
	w      *Worker
	op     int
	st     *steerState // the device's (or queue's) steering state
	id     uint16      // device id and queue, for the worker span
	q      uint8
	cost   sim.Time
	parent trace.SpanID
	name   string
	flow   uint64 // fabric-global flow key for the worker span (0 = none)
	fn     func()

	// steerOpDeliver state: the sender and its record as resolved at
	// ingress (nil for an unregistered sender), and the message's lease.
	c       *client
	src     ethernet.MAC
	msg     *bufpool.Frame
	netRoot trace.SpanID

	// steerOpNetIn state.
	dev *netDevice
	raw []byte
}

// steer assigns a work item's device to its owning worker, or to the least
// loaded worker when unowned, holding ownership until the device's queue
// drains (§4.1: order-preserving steering). it.parent/it.name describe the
// iohyp_worker span recorded around the work item when tracing is on; the
// span is backdated by cost from inside the completion callback, so it
// covers exactly the service window (queueing excluded).
func (h *IOHypervisor) steer(it *steerItem) {
	st := it.st
	if st.owner == nil {
		st.owner = h.pickWorker()
	}
	it.w = st.owner
	st.pending++
	it.w.Core.Exec(cpu.NoOwner, cpu.KindBusy, it.cost, it.fn)
}

// run executes a steered work item on its worker and recycles it.
func (it *steerItem) run() {
	h := it.h
	if h.Tracer.Enabled() {
		// The span arg packs the submission queue above the device id, so
		// per-queue worker occupancy is visible in exports (0 for
		// single-queue devices, leaving legacy traces untouched).
		arg := uint64(it.id) | uint64(it.q)<<32
		span := h.Tracer.BeginFlowAt(trace.CatWorker, it.name, it.parent, arg, it.flow, h.eng.Now()-it.cost)
		defer h.Tracer.End(span)
	}
	it.w.Processed++
	if it.st.pending--; it.st.pending == 0 && !it.st.pinned {
		it.st.owner = nil
	}
	if !h.failed { // a crashed host executes nothing, even queued work
		h.beginTxBatch()
		switch it.op {
		case steerOpDeliver:
			h.cur = it.c
			if err := h.endpoint.DeliverFrame(it.src, it.msg); err != nil {
				h.Counters.Inc("bad_msgs", 1)
			}
			h.Tracer.End(it.netRoot)
		case steerOpNetIn:
			h.cur = it.dev.c
			h.endpoint.SendNetRx(it.dev.c.mac, it.dev.id, it.raw)
			h.txInterrupt()
		}
		h.endTxBatch()
	}
	if it.op == steerOpNetIn {
		h.bufPool().PutRaw(it.raw)
	} else if h.failed {
		it.msg.Release() // queued before the crash, never delivered
	}
	*it = steerItem{h: it.h, fn: it.fn}
	h.steers.Put(it)
}

// --- transport-level handlers (run inside steered work items) ---

// handleNetTx forwards a guest-transmitted frame through its device's back
// end: locally to another IOclient device, or out the uplink. The sender is
// h.cur.
func (h *IOHypervisor) handleNetTx(_ ethernet.MAC, deviceID uint16, frame []byte) {
	if h.failed {
		return
	}
	dev := h.cur.netDev(deviceID)
	if dev == nil {
		dev = h.newNetDevice(nil, deviceID, ethernet.MAC{}, nil)
		dev.keepSrc = true
	}
	dev.srv.Serve(dev, interpose.ToDevice, frame)
}

// Charge implements virtio.NetSite for the frames the device sends: the
// least loaded worker pays without delaying the frame (the message's service
// cost was charged at steer time, and this keeps the model simple).
func (d *netDevice) Charge(cost sim.Time) {
	d.h.pickWorker().Core.Exec(cpu.NoOwner, cpu.KindBusy, cost, nil)
}

// Forward implements virtio.NetSite for the frames the device sends: to
// the device owning the destination F address, else out the uplink.
func (d *netDevice) Forward(f ethernet.Frame) {
	h := d.h
	if local := h.fib[f.Dst.Key()]; local != nil {
		// VM-to-VM through the IOhost: deliver to the destination device.
		h.Counters.Inc("net_fwd_local", 1)
		local.srv.Interpose(&local.local, interpose.ToGuest, f)
		return
	}
	if h.uplink == nil {
		h.Counters.Inc("unknown_dst", 1)
		return
	}
	h.Counters.Inc("net_fwd_uplink", 1)
	// Transmit with the device's F MAC as source so replies route back.
	if !d.keepSrc {
		f.Src = d.fMAC
	}
	if err := h.uplink.SendFrame(f); err != nil {
		h.Counters.Inc("bad_msgs", 1)
	}
	h.txInterrupt()
}

// netLocal is a device's virtio.NetSite for frames another device sends it
// through the IOhost: the chain's cost is billed like the sender's, and the
// frame goes to the client as net-rx.
type netLocal struct {
	d   *netDevice
	hdr [ethernet.HeaderSize]byte // the forwarded frame's header, gathered before its payload
}

// Charge implements virtio.NetSite.
func (s *netLocal) Charge(cost sim.Time) { s.d.Charge(cost) }

// Forward implements virtio.NetSite.
func (s *netLocal) Forward(f ethernet.Frame) {
	h := s.d.h
	ethernet.PutHeader(s.hdr[:], f.Dst, f.Src, f.EtherType)
	h.cur = s.d.c
	h.endpoint.SendNetRx(s.d.c.mac, s.d.id, s.hdr[:], f.Payload)
	h.txInterrupt()
}

// respBlkUnsupp answers requests for unknown devices (RespondBlk borrows and
// copies, so the read-only slice is safe to reuse).
var respBlkUnsupp = []byte{virtio.BlkUnsupp}

// handleBlkReq serves a virtio-blk request through its device's BlkServer.
// The sender is h.cur. req is a leased buffer, released once the request's
// bytes are consumed: right away for everything but a submitted write, whose
// interposed payload may alias the lease until the backend completes.
func (h *IOHypervisor) handleBlkReq(src ethernet.MAC, hdr transport.Header, req *bufpool.Frame) {
	dev := h.cur.blkDev(hdr.DeviceID)
	if dev == nil {
		h.Counters.Inc("unknown_dev", 1)
		h.endpoint.RespondBlk(src, hdr, respBlkUnsupp)
		req.Release()
		return
	}
	c := h.calls.Get()
	c.dev, c.c, c.src, c.hdr, c.q = dev, h.cur, src, hdr, dev.blkQueue(hdr.OrigID)
	op, ok := dev.srv.Serve(c, req.B)
	if !ok {
		req.Release()
		return
	}
	// Serve has only queued the charge that precedes the backend, so the
	// in-flight entry and the blockdev span below still open before it runs.
	// A write's payload may alias the lease until the backend completes; any
	// other request is fully decoded into values by now.
	if op == blockdev.OpWrite || op == blockdev.OpVolWrite {
		c.lease = req
	} else {
		req.Release()
	}
	// Blockdev spans cover handoff-to-backend through backend completion,
	// parented under the request's guest_ring root (left linked until the
	// driver consumes the completion).
	root := h.Tracer.Lookup(trace.FlowKey{Kind: transport.FlowBlkRoot, A: trace.Key48(src), B: hdr.OrigID})
	c.bd = h.Tracer.BeginArg(trace.CatBlockdev, op.String(), root, hdr.OrigID)
	dev.qdepth[c.q]++
}

// blkCall is the IOhost's BlkSite for one request: it charges the IOhost
// workers and answers over the transport. Calls are recycled through
// IOHypervisor.calls once Reply, the request's last hook, has answered.
type blkCall struct {
	h   *IOHypervisor
	dev *blkDevice
	c   *client
	src ethernet.MAC
	hdr transport.Header
	q   int
	// lease holds a write's request buffer until the backend completes.
	lease *bufpool.Frame
	bd    trace.SpanID
}

// Charge runs the backend stages of a multi-queue request on the queue's
// pinned worker (passthrough affinity end to end); single-queue devices take
// the least loaded worker.
func (c *blkCall) Charge(cost sim.Time, fn func()) {
	w := c.dev.steer[c.q].owner
	if !c.dev.steer[c.q].pinned {
		w = c.h.pickWorker()
	}
	w.Core.Exec(cpu.NoOwner, cpu.KindBusy, cost, fn)
}

// Completed ends the request's in-flight entry and blockdev span. The
// backend completion always runs, even on a crashed host (where only the
// response is suppressed), so the in-flight tables drain exactly once.
func (c *blkCall) Completed() {
	c.dev.qdepth[c.q]--
	c.h.Tracer.End(c.bd)
	if c.lease != nil {
		c.lease.Release()
	}
}

// Reply answers the request, gathering the status and the data into the
// response, releases the data (RespondBlk borrows it) and recycles the
// call.
func (c *blkCall) Reply(status, data []byte) {
	h := c.h
	if !h.failed { // completions from a crashed host never leave it
		h.cur = c.c
		h.endpoint.RespondBlk(c.src, c.hdr, status, data)
		h.txInterrupt()
	}
	h.bufPool().PutRaw(data)
	*c = blkCall{h: h}
	h.calls.Put(c)
}
