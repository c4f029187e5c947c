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
// Feed it frames from VF.Poll (sidecore loop) or from OnInterrupt handlers;
// it does not pull by itself, because *when* frames are consumed is the
// difference between the I/O models.
type MessagePort struct {
	vf  *VF
	mtu int
	asm *ethernet.Reassembler

	// OnMessage receives each fully reassembled vRIO transport message.
	// zeroCopy reports whether reassembly stayed within the 17-page SKB
	// budget (§4.4); fragments is the fragment count of the message.
	OnMessage func(src ethernet.MAC, msg []byte, zeroCopy bool, fragments int)
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

// MTU reports the channel MTU.
func (p *MessagePort) MTU() int { return p.mtu }

// BufPool implements transport.Pooler: transport wire buffers come from the
// underlying NIC's pool, closing the fragment-recycling loop (driver encodes
// from the pool; the port's reassembler recycles fragment slabs back into
// it).
func (p *MessagePort) BufPool() *bufpool.Pool { return p.vf.nic.Pool() }

// Send implements transport.Port: one complete transport message, TSO'd
// onto the wire.
func (p *MessagePort) Send(dst ethernet.MAC, payload []byte) {
	if err := p.vf.SendMessage(dst, 0, payload, p.mtu); err != nil {
		p.Errors++
	}
}

// HandleFrame ingests one received frame (from Poll or an interrupt batch)
// and takes ownership of it: every frame is consumed and its slab returned
// to the pool. vRIO fragments are copied into the reassembly buffer, so a
// fragment buffer must not be shared with another port. Plain (tenant)
// frames are lent to OnPlainFrame for the duration of the call. A completed
// message's Data is handed to OnMessage, whose consumer owns it (and returns
// it to the pool when done).
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
	pool.PutRaw(frame)
	if err != nil {
		p.Errors++
		return
	}
	if msg != nil && p.OnMessage != nil {
		p.OnMessage(msg.Src, msg.Data, msg.ZeroCopy, msg.Fragments)
	}
}

// HandleBatch ingests a batch of frames.
func (p *MessagePort) HandleBatch(frames [][]byte) {
	for _, fr := range frames {
		p.HandleFrame(fr)
	}
}
