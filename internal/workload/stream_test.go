package workload

import (
	"testing"

	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/link"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
)

// lossyGuest is a netServer straight on a NIC VF that loses every
// dropTx-th frame it sends, so a stream over it runs both its ack path and
// its loss-timeout path. A halted guest takes no more compute, so the
// stream sends no chunk after the halt and the ones in flight drain.
type lossyGuest struct {
	eng    *sim.Engine
	vf     *nic.VF
	onRx   func(ethernet.Frame)
	dropTx int
	tx     int
	halted bool
}

func (g *lossyGuest) OnNetRx(fn func(ethernet.Frame)) { g.onRx = fn }
func (g *lossyGuest) MAC() ethernet.MAC               { return g.vf.MAC() }
func (g *lossyGuest) Compute(d sim.Time, fn func()) {
	if !g.halted {
		g.eng.After(d, fn)
	}
}
func (g *lossyGuest) SendNet(f ethernet.Frame) {
	if g.tx++; g.tx%g.dropTx == 0 {
		return
	}
	if err := g.vf.SendFrame(f); err != nil {
		panic(err)
	}
}

// newLossyStream wires a Stream from a lossyGuest to a Station over one
// cable.
func newLossyStream(window int) (*sim.Engine, *lossyGuest, *Stream) {
	eng := sim.NewEngine()
	p := params.Default()
	cable := link.NewDuplex(eng, p.LinkBandwidth10G, p.WireLatency)
	cfg := nic.Config{ProcessCost: p.NICProcessCost, CoalesceDelay: p.IRQCoalesceDelay, RxRingSize: 1024}
	genNIC := nic.New(eng, "gen", cfg, cable.AtoB)
	guestNIC := nic.New(eng, "guest", cfg, cable.BtoA)
	cable.AtoB.SetReceiver(guestNIC)
	cable.BtoA.SetReceiver(genNIC)
	st := NewStation(eng, &p, cpu.New(eng, 0), genNIC.AddVF(ethernet.NewMAC(1), nic.ModeInterrupt))
	gvf := guestNIC.AddVF(ethernet.NewMAC(2), nic.ModeInterrupt)
	g := &lossyGuest{eng: eng, vf: gvf, dropTx: 7}
	gvf.OnInterrupt(func(frames [][]byte) {
		for _, raw := range frames {
			if f, err := ethernet.Decode(raw); err == nil && g.onRx != nil {
				g.onRx(f)
			}
			guestNIC.Pool().PutRaw(raw)
		}
	})
	s := NewStream(g, st, 1024, 2*sim.Microsecond, window)
	s.Results.StartMeasuring()
	return eng, g, s
}

// The stream's duplicate-ack bookkeeping stays bounded by its window: after
// ten windows' worth of chunks, with chunks lost along the way, it
// holds no more entries than the window, and the loss and delivery counts
// are the ones the unbounded bookkeeping produced.
func TestStreamAckBookkeepingBounded(t *testing.T) {
	const window = 8
	eng, g, s := newLossyStream(window)
	s.Start()
	for s.seq < 10*window && eng.Now() < 10*sim.Second {
		eng.RunUntil(eng.Now() + sim.Millisecond)
		if n := len(s.outstanding); n > window {
			t.Fatalf("%d chunks tracked after %d sent, want <= window %d", n, s.seq, window)
		}
	}
	if s.seq < 10*window {
		t.Fatalf("stream stalled after %d chunks", s.seq)
	}
	g.halted = true
	eng.RunUntil(eng.Now() + 2*chunkTimeout)
	if s.Lost != 16 || s.Results.Ops != 96 || s.Results.Bytes != 96*1024 || s.Results.Errors != 0 {
		t.Errorf("lost=%d ops=%d bytes=%d errors=%d, want 16, 96, %d, 0",
			s.Lost, s.Results.Ops, s.Results.Bytes, s.Results.Errors, 96*1024)
	}
}
