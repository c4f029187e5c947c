package nic

import (
	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
)

// MessagePort glues a VF to the transport layer: on the send side it
// implements transport.Port by TSO-segmenting messages; on the receive side
// it reassembles vRIO fragments back into complete transport messages and
// passes plain (tenant) frames through untouched.
//
// Feed it frames from VF.PollInto (sidecore loop) or from OnInterrupt handlers;
// it does not pull by itself, because *when* frames are consumed is the
// difference between the I/O models.
type MessagePort struct {
	vf  *VF
	mtu int
	asm *ethernet.Reassembler

	// OnMessage receives each fully reassembled vRIO transport message as a
	// lease the consumer owns and Releases. A message that arrived in one
	// fragment is the received frame's slab itself, viewed past its headers;
	// a multi-fragment one is its reassembly buffer. zeroCopy reports whether
	// reassembly stayed within the 17-page SKB budget (§4.4); fragments is
	// the fragment count of the message.
	OnMessage func(src ethernet.MAC, msg *bufpool.Frame, zeroCopy bool, fragments int)
	// OnPlainFrame receives non-vRIO Ethernet frames (tenant traffic).
	OnPlainFrame func(f ethernet.Frame)

	// Errors counts undecodable frames or fragments.
	Errors uint64
}

// NewMessagePort wraps a VF with the given channel MTU.
func NewMessagePort(vf *VF, mtu int) *MessagePort {
	return &MessagePort{vf: vf, mtu: mtu, asm: ethernet.NewReassembler(0)}
}

// LocalMAC implements transport.Port.
func (p *MessagePort) LocalMAC() ethernet.MAC { return p.vf.MAC() }

// VF exposes the underlying virtual function.
func (p *MessagePort) VF() *VF { return p.vf }

// BufPool implements transport.Pooler: transport wire buffers come from the
// underlying NIC's pool, closing the fragment-recycling loop (frames are
// built in its slabs, and the consumers of received messages return them to
// it).
func (p *MessagePort) BufPool() *bufpool.Pool { return p.vf.nic.Pool() }

// Send implements transport.Port: one complete transport message, TSO'd
// onto the wire.
func (p *MessagePort) Send(dst ethernet.MAC, payload []byte) { p.SendGather(dst, payload) }

// SendGather implements transport.Gatherer: one transport message, gathered
// from parts by the NIC's TSO segmenter as it builds the wire frames.
func (p *MessagePort) SendGather(dst ethernet.MAC, parts ...[]byte) {
	if err := p.vf.SendMessage(dst, 0, p.mtu, parts...); err != nil {
		p.Errors++
	}
}

// HandleFrame ingests one received frame (from PollInto or an interrupt batch)
// and takes ownership of it. Plain (tenant) frames are lent to OnPlainFrame
// for the duration of the call and then returned to the pool. A vRIO
// fragment that completes a message by itself goes on to OnMessage as the
// message's lease, its slab recycled when the consumer Releases it; any
// other fragment is copied into its message's reassembly buffer and
// returned to the pool at once. A frame must therefore not be shared with
// another port.
func (p *MessagePort) HandleFrame(frame []byte) {
	pool := p.vf.nic.Pool()
	f, err := ethernet.Decode(frame)
	if err != nil || f.EtherType != ethernet.EtherTypeVRIO {
		if err != nil {
			p.Errors++
		} else if p.OnPlainFrame != nil {
			p.OnPlainFrame(f)
		}
		pool.PutRaw(frame)
		return
	}
	p.asm.SetPool(pool) // stays in sync if the NIC's pool is rebound
	msg, err := p.asm.Add(f.Src, f.Payload)
	if err != nil {
		p.Errors++
	}
	if msg == nil {
		pool.PutRaw(frame)
		return
	}
	slab := frame
	if !msg.InPlace {
		pool.PutRaw(frame)
		slab = msg.Data
	}
	if p.OnMessage == nil {
		pool.PutRaw(slab)
		return
	}
	p.OnMessage(msg.Src, pool.Wrap(slab, msg.Data), msg.ZeroCopy, msg.Fragments)
}

// HandleBatch ingests a batch of frames.
func (p *MessagePort) HandleBatch(frames [][]byte) {
	for _, fr := range frames {
		p.HandleFrame(fr)
	}
}
