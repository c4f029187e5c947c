package cluster

import (
	"testing"

	"vrio/internal/core"
	"vrio/internal/ethernet"
	"vrio/internal/sim"
)

// A broadcast reaches every receiver in a buffer of its own: the switch
// flood and the host NIC's delivery to its VFs copy the frame for each
// extra receiver. Every receiver releases what it is given, so once the
// broadcast is consumed no slab may sit in the pool twice — two later
// GetRaw calls would share it.
func TestBroadcastGivesEachReceiverItsOwnSlab(t *testing.T) {
	tb := Build(Spec{Model: core.ModelOptimum, VMHosts: 1, VMsPerHost: 3, StationPerVM: true, NoJitter: true, Seed: 5})
	src := tb.Stations[0]
	seen := map[*byte]string{}
	got := func(who string) func(ethernet.Frame) {
		return func(f ethernet.Frame) {
			if prev, dup := seen[&f.Payload[0]]; dup {
				t.Errorf("%s and %s received the broadcast in one buffer", prev, who)
			}
			seen[&f.Payload[0]] = who
		}
	}
	for i, st := range tb.Stations[1:] {
		st.Subscribe(src.MAC(), got("station "+string(rune('1'+i))))
	}
	for i, g := range tb.Guests {
		g.OnNetRx(got("guest " + string(rune('0'+i))))
	}
	src.Send(ethernet.Frame{Dst: ethernet.Broadcast, EtherType: ethernet.EtherTypePlain, Payload: []byte("hello, rack")}, nil)
	tb.Eng.RunUntil(sim.Millisecond)
	if want := len(tb.Stations) - 1 + len(tb.Guests); len(seen) != want {
		t.Fatalf("%d receivers got the broadcast, want %d", len(seen), want)
	}

	// Drain the pool's smallest class, where every frame here lives.
	free := map[*byte]bool{}
	for {
		misses := tb.pool.Stats.Misses
		b := tb.pool.GetRaw(1)
		if tb.pool.Stats.Misses != misses {
			break
		}
		if free[&b[0]] {
			t.Fatal("a slab sat in the pool twice")
		}
		free[&b[0]] = true
	}
}
