package core_test

import (
	"bytes"
	"testing"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/interpose"
	"vrio/internal/sim"
	"vrio/internal/virtio"
)

// netPath drives one site of the shared net back end end to end: a sender,
// a receiver and the path between them. Each path has one interposing
// device, whose chain the site runs: the receiver's (toward the guest), or
// on the uplink path the sender's (toward the device).
type netPath struct {
	name  string
	model core.ModelName
	vms   int
	// interposer is the VM index whose chain the site runs.
	interposer int
	// send transmits payload along the path; receive registers the
	// receiver's handler.
	send    func(tb *cluster.Testbed, payload []byte)
	receive func(tb *cluster.Testbed, fn func(ethernet.Frame))
	// inject puts raw bytes at the site's entry; nil when the entry is not
	// reachable from outside the serving package.
	inject func(tb *cluster.Testbed, raw []byte)
	// cores are the cores that pay for the site's work.
	cores func(tb *cluster.Testbed) []*cpu.Core
}

// guestToGuest is a path from guest 0 to guest 1 on one host, interposed
// by the receiver's chain.
func guestToGuest(name string, m core.ModelName, inject func(tb *cluster.Testbed, raw []byte), cores func(tb *cluster.Testbed) []*cpu.Core) netPath {
	return netPath{
		name: name, model: m, vms: 2, interposer: 1,
		send: func(tb *cluster.Testbed, payload []byte) {
			tb.Guests[0].SendNet(ethernet.Frame{Dst: tb.Guests[1].MAC(), EtherType: ethernet.EtherTypePlain, Payload: payload})
		},
		receive: func(tb *cluster.Testbed, fn func(ethernet.Frame)) { tb.Guests[1].OnNetRx(fn) },
		inject:  inject,
		cores:   cores,
	}
}

func sidecores(tb *cluster.Testbed) []*cpu.Core { return tb.Sidecores }

// sendRawVRIO hands raw to the IOhost as guest 0's net-tx message.
func sendRawVRIO(tb *cluster.Testbed, raw []byte) {
	c := tb.VRIOClients[0]
	c.Driver.SendNet(uint8(virtio.DeviceNet), c.NetDeviceID(), raw)
}

var netPaths = []netPath{
	guestToGuest("baseline", core.ModelBaseline,
		func(tb *cluster.Testbed, raw []byte) { core.SendRawNet(tb.Guests[0], raw) },
		func(tb *cluster.Testbed) []*cpu.Core { return tb.IOCores }),
	guestToGuest("elvis", core.ModelElvis,
		func(tb *cluster.Testbed, raw []byte) { core.SendRawNet(tb.Guests[0], raw) },
		sidecores),
	guestToGuest("iohost local forward", core.ModelVRIO, sendRawVRIO, sidecores),
	{
		name: "iohost uplink", model: core.ModelVRIO, vms: 1, interposer: 0,
		send: func(tb *cluster.Testbed, payload []byte) {
			tb.Guests[0].SendNet(ethernet.Frame{Dst: tb.Stations[0].MAC(), EtherType: ethernet.EtherTypePlain, Payload: payload})
		},
		receive: func(tb *cluster.Testbed, fn func(ethernet.Frame)) { tb.Stations[0].Subscribe(tb.Guests[0].MAC(), fn) },
		inject:  sendRawVRIO,
		cores:   sidecores,
	},
	{
		// A frame shorter than a header never gets past the IOhost's uplink
		// NIC, so the ingress's own check is tested inside package iohyp.
		name: "iohost ingress", model: core.ModelVRIO, vms: 1, interposer: 0,
		send: func(tb *cluster.Testbed, payload []byte) {
			tb.Stations[0].Send(ethernet.Frame{Dst: tb.Guests[0].MAC(), EtherType: ethernet.EtherTypePlain, Payload: payload}, nil)
		},
		receive: func(tb *cluster.Testbed, fn func(ethernet.Frame)) { tb.Guests[0].OnNetRx(fn) },
		cores:   sidecores,
	},
}

// build assembles the path's testbed with chain on its interposing device.
func (p netPath) build(chain *interpose.Chain) *cluster.Testbed {
	return cluster.Build(cluster.Spec{
		Model: p.model, VMsPerHost: p.vms, NoJitter: true, Seed: 11,
		NetChain: func(host, vm int) *interpose.Chain {
			if vm == p.interposer {
				return chain
			}
			return nil
		},
	})
}

// run sends payload (or injects raw, when raw is set) and reports the
// payloads the receiver got, the IOhost's counters of interest and the
// serving cores' busy time.
func (p netPath) run(t *testing.T, chain *interpose.Chain, payload, raw []byte) (got [][]byte, drops, bad uint64, busy sim.Time) {
	t.Helper()
	tb := p.build(chain)
	p.receive(tb, func(f ethernet.Frame) { got = append(got, append([]byte{}, f.Payload...)) })
	if raw != nil {
		p.inject(tb, raw)
	} else {
		p.send(tb, payload)
	}
	tb.Eng.RunUntil(tb.Eng.Now() + 5*sim.Millisecond)
	if h := tb.IOHyp; h != nil {
		drops, bad = h.Counters.Get("interpose_drops"), h.Counters.Get("bad_msgs")
	}
	for _, c := range p.cores(tb) {
		busy += c.Accounted(cpu.KindBusy)
	}
	return got, drops, bad, busy
}

// TestNetServeAllSites runs the net back end at each of its sites: the
// baseline's vhost core, Elvis's sidecore, and the IOhost's local-forward,
// uplink and ingress paths. A clean frame must arrive intact, a frame the
// firewall refuses must not (and the IOhost must count it), a frame too
// short to decode must be dropped (and counted) without a panic, and a
// costed chain must add exactly its cost to the serving cores' busy time.
func TestNetServeAllSites(t *testing.T) {
	const checkCost = 7 * sim.Microsecond
	clean := []byte("clean frame")
	for _, p := range netPaths {
		iohost := p.model == core.ModelVRIO

		got, drops, bad, _ := p.run(t, interpose.NewChain(interpose.NewFirewall(0, []byte("DROP"))), clean, nil)
		if len(got) != 1 || !bytes.Equal(got[0], clean) {
			t.Errorf("%s: clean frame: received %q, want [%q]", p.name, got, clean)
		}
		if drops != 0 || bad != 0 {
			t.Errorf("%s: clean frame: interpose_drops %d, bad_msgs %d, want 0", p.name, drops, bad)
		}

		got, drops, _, _ = p.run(t, interpose.NewChain(interpose.NewFirewall(0, []byte("DROP"))), []byte("DROP me"), nil)
		if len(got) != 0 {
			t.Errorf("%s: refused frame was delivered: %q", p.name, got)
		}
		if iohost && drops != 1 {
			t.Errorf("%s: refused frame: interpose_drops %d, want 1", p.name, drops)
		}

		if p.inject != nil {
			got, _, bad, _ = p.run(t, nil, nil, []byte("too short"))
			if len(got) != 0 {
				t.Errorf("%s: short frame was delivered: %q", p.name, got)
			}
			if iohost && bad != 1 {
				t.Errorf("%s: short frame: bad_msgs %d, want 1", p.name, bad)
			}
		}

		_, _, _, free := p.run(t, interpose.NewChain(interpose.NewFirewall(0)), clean, nil)
		got, _, _, costed := p.run(t, interpose.NewChain(interpose.NewFirewall(checkCost)), clean, nil)
		if len(got) != 1 {
			t.Errorf("%s: costed chain: received %d frames, want 1", p.name, len(got))
		}
		if costed-free != checkCost {
			t.Errorf("%s: costed chain: serving cores' busy time rose by %v, want %v", p.name, costed-free, checkCost)
		}
	}
}
