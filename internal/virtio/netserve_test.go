package virtio

import (
	"testing"

	"vrio/internal/ethernet"
	"vrio/internal/interpose"
	"vrio/internal/sim"
	"vrio/internal/stats"
)

// recordSite is a NetSite that pays its charges at once and keeps what it
// was given.
type recordSite struct {
	charged sim.Time
	got     []ethernet.Frame
}

func (s *recordSite) Charge(cost sim.Time, fn func()) {
	s.charged += cost
	fn()
}

func (s *recordSite) Forward(f ethernet.Frame) { s.got = append(s.got, f) }

func TestNetServerServe(t *testing.T) {
	var counters stats.Counters
	srv := NetServer{Chain: interpose.NewChain(interpose.NewFirewall(3, []byte("DROP"))), Device: 4, Counters: &counters}
	frame := func(payload string) []byte {
		raw, _ := (&ethernet.Frame{Dst: ethernet.NewMAC(1), Src: ethernet.NewMAC(2), EtherType: ethernet.EtherTypePlain, Payload: []byte(payload)}).Encode(0)
		return raw
	}
	site := &recordSite{}
	srv.Serve(site, interpose.ToGuest, frame("hello"))
	srv.Serve(site, interpose.ToDevice, frame("DROP this"))
	srv.Serve(site, interpose.ToDevice, frame("")[:ethernet.HeaderSize-1])
	if len(site.got) != 1 || string(site.got[0].Payload) != "hello" || site.got[0].Src != ethernet.NewMAC(2) {
		t.Fatalf("forwarded %+v, want the one clean frame", site.got)
	}
	if site.charged != 3 {
		t.Errorf("charged %v, want the clean frame's check only", site.charged)
	}
	if d, b := counters.Get("interpose_drops"), counters.Get("bad_msgs"); d != 1 || b != 1 {
		t.Errorf("interpose_drops %d, bad_msgs %d, want 1 and 1", d, b)
	}
}

// A frame through a chain that costs nothing is forwarded without a charge
// and without allocating.
func TestNetServerFreeChainZeroAlloc(t *testing.T) {
	srv := NetServer{Chain: interpose.NewChain(interpose.Null{})}
	raw, _ := (&ethernet.Frame{EtherType: ethernet.EtherTypePlain, Payload: []byte("x")}).Encode(0)
	site := &recordSite{got: make([]ethernet.Frame, 0, 1)}
	allocs := testing.AllocsPerRun(100, func() {
		site.got = site.got[:0]
		srv.Serve(site, interpose.ToGuest, raw)
	})
	if allocs != 0 || site.charged != 0 || len(site.got) != 1 {
		t.Errorf("%v allocs, charged %v, %d forwarded; want 0, 0, 1", allocs, site.charged, len(site.got))
	}
}
