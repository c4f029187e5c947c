package netwire

import (
	"errors"
	"fmt"
	"net"
	"net/netip"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/link"
)

// udpScratch is how many receive buffers circulate between a UDP carrier's
// reader goroutine and the loop. It bounds frames in flight inside the
// process; the reader blocks (and the kernel socket buffer absorbs bursts)
// when the loop falls behind.
const udpScratch = 4

// udpReadBuffer is the socket receive buffer ListenUDP asks for. The
// kernel default (about 200 KiB on Linux) overflows under a few guests'
// queued block requests, and every datagram it drops costs a §4.5
// retransmission timeout. The kernel caps the request at its limit
// (net.core.rmem_max on Linux) without an error.
const udpReadBuffer = 4 << 20

// UDPCarrier is the datagram carrier: one transport message per UDP
// datagram, so the real network — plus an optional injected link.TxFault —
// may lose, duplicate, or reorder messages, and §4.5 retransmission does
// the recovering. One carrier serves any number of peers through a single
// socket: destinations are learned from the source MAC of every valid
// incoming frame (the way a switch learns ports), or seeded with AddPeer.
//
// All methods and callbacks except Close belong to the loop goroutine.
type UDPCarrier struct {
	loop  *Loop
	pool  *bufpool.Pool
	mac   ethernet.MAC
	conn  *net.UDPConn
	peers map[ethernet.MAC]netip.AddrPort
	fault link.TxFault
	free  chan []byte

	// OnMessage receives each delivered transport message. The buffer is
	// loaned from the carrier's pool and ownership transfers to the
	// callback (transport Deliver recycles it).
	OnMessage func(src ethernet.MAC, msg []byte)
	// OnHello fires when a peer's hello arrives (after the ack is sent).
	OnHello func(src ethernet.MAC)
	// OnReady fires when a peer acks our hello: the round trip works.
	OnReady func(src ethernet.MAC)

	// Wire accounting, mirroring link.Wire's.
	Frames    uint64 // frames handed to the loop by the reader
	Delivered uint64 // data frames delivered to OnMessage
	Sent      uint64 // frames written to the socket
	Corrupted uint64 // frames mutated in flight by the injector
	Drops     link.DropStats
}

// ListenUDP opens the carrier's socket on laddr (e.g. "127.0.0.1:0") and
// starts its reader. mac is this carrier's address on the vRIO channel;
// pool serves every buffer and must belong to the same loop.
func ListenUDP(loop *Loop, pool *bufpool.Pool, mac ethernet.MAC, laddr string) (*UDPCarrier, error) {
	addr, err := net.ResolveUDPAddr("udp", laddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	if err := conn.SetReadBuffer(udpReadBuffer); err != nil {
		conn.Close()
		return nil, err
	}
	c := &UDPCarrier{
		loop:  loop,
		pool:  pool,
		mac:   mac,
		conn:  conn,
		peers: make(map[ethernet.MAC]netip.AddrPort),
		free:  make(chan []byte, udpScratch),
	}
	for i := 0; i < udpScratch; i++ {
		c.free <- make([]byte, MaxDatagram)
	}
	go c.readLoop()
	return c, nil
}

// LocalMAC implements transport.Port.
func (c *UDPCarrier) LocalMAC() ethernet.MAC { return c.mac }

// BufPool implements transport.Pooler.
func (c *UDPCarrier) BufPool() *bufpool.Pool { return c.pool }

// AddPeer seeds the MAC-to-address table; the first contact with a peer
// must be seeded, after which incoming frames keep the table learned.
func (c *UDPCarrier) AddPeer(mac ethernet.MAC, addr netip.AddrPort) { c.peers[mac] = addr }

// SetFault attaches a deterministic injector to the transmit hook, exactly
// where link.Wire applies its TxFault: after the frame is sealed, so a
// corrupting injector is caught by the receiver's checksum.
func (c *UDPCarrier) SetFault(f link.TxFault) { c.fault = f }

// Close shuts the socket down; the reader goroutine exits. Safe from any
// goroutine.
func (c *UDPCarrier) Close() error { return c.conn.Close() }

// SendHello announces this carrier to dst (which must be seeded with
// AddPeer). The peer answers with an ack that fires OnReady.
func (c *UDPCarrier) SendHello(dst ethernet.MAC) { c.sendEmpty(KindHello, dst) }

// Send implements transport.Port: one message, one datagram. The payload
// is only borrowed. An unknown destination or an injected loss is counted
// in Drops, never reported to the caller — loss is the channel's business,
// recovery the transport's.
func (c *UDPCarrier) Send(dst ethernet.MAC, payload []byte) {
	addr, ok := c.peers[dst]
	if !ok {
		c.Drops.Count(link.DropNoRoute)
		return
	}
	n := PreambleSize + len(payload)
	if n > MaxDatagram {
		panic(fmt.Sprintf("netwire: %d-byte message exceeds one datagram (transport MaxChunk too large for the UDP carrier)", len(payload)))
	}
	buf := c.pool.GetRaw(n)
	copy(buf[PreambleSize:], payload)
	SealFrame(buf, KindData, c.mac, dst)
	c.xmit(addr, buf)
	c.pool.PutRaw(buf)
}

func (c *UDPCarrier) sendEmpty(kind Kind, dst ethernet.MAC) {
	addr, ok := c.peers[dst]
	if !ok {
		c.Drops.Count(link.DropNoRoute)
		return
	}
	buf := c.pool.GetRaw(PreambleSize)
	SealFrame(buf, kind, c.mac, dst)
	c.xmit(addr, buf)
	c.pool.PutRaw(buf)
}

// xmit applies the fault injector and writes the sealed frame.
func (c *UDPCarrier) xmit(addr netip.AddrPort, buf []byte) {
	if c.fault != nil {
		switch v := c.fault.Apply(buf); v.Action {
		case link.FaultDrop:
			c.Drops.Count(link.DropInjected)
			return
		case link.FaultCorrupt:
			// The injector flipped bits after the seal; the receiver's
			// checksum will catch it and drop the frame as corrupt_fcs.
			c.Corrupted++
		}
		// Delay verdicts (Extra) are ignored: a real network supplies its
		// own jitter, and honoring them would mean copying the frame.
	}
	c.Sent++
	// Send errors are deliberately dropped on the floor: a datagram socket
	// can fail transiently (full buffers, ICMP backpressure) and the
	// transport's retransmission already covers every lost frame.
	_, _ = c.conn.WriteToUDPAddrPort(buf, addr)
}

// readLoop runs on the carrier's reader goroutine, recycling scratch
// buffers through c.free.
func (c *UDPCarrier) readLoop() {
	for {
		buf := <-c.free
		n, from, err := c.conn.ReadFromUDPAddrPort(buf[:cap(buf)])
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient (e.g. a connection-refused bounce surfaced by the
			// kernel): recycle the buffer and keep reading.
			c.free <- buf
			continue
		}
		if !c.loop.post(work{c: c, frame: buf[:n], from: from}) {
			return // loop closed
		}
	}
}

// handleFrame consumes one frame the reader posted, on the loop goroutine.
func (c *UDPCarrier) handleFrame(frame []byte, from netip.AddrPort) {
	c.Frames++
	p, payload, err := DecodeFrame(frame)
	switch {
	case errors.Is(err, ErrChecksum):
		c.Drops.Count(link.DropCorruptFCS)
		return
	case err != nil:
		c.Drops.Count(link.DropRunt)
		return
	}
	if p.Dst != c.mac && p.Dst != ethernet.Broadcast {
		c.Drops.Count(link.DropNoRoute)
		return
	}
	c.peers[p.Src] = from
	switch p.Kind {
	case KindHello:
		c.sendEmpty(KindHelloAck, p.Src)
		if c.OnHello != nil {
			c.OnHello(p.Src)
		}
	case KindHelloAck:
		if c.OnReady != nil {
			c.OnReady(p.Src)
		}
	case KindData:
		c.Delivered++
		if c.OnMessage == nil {
			return
		}
		msg := c.pool.GetRaw(len(payload))
		copy(msg, payload)
		c.OnMessage(p.Src, msg)
	}
}
