package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vrio/internal/ethernet"
	"vrio/internal/fault"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// echoClient is a closed-loop RR generator whose every request carries a
// distinct random 64-byte payload (its sequence number first). It keeps
// every payload it sent, so each echo — on time, late or duplicated — is
// checked byte for byte. A frame buffer released while still in use and
// then reused shows up as an echo that does not match.
type echoClient struct {
	eng     *sim.Engine
	st      *workload.Station
	target  ethernet.MAC
	rng     *sim.RNG
	sent    [][]byte // by sequence number - 1
	waiting uint64   // the sequence number in flight, 0 when none
	matched int
	bad     int
}

// echoTimeout restarts the loop when a request or its echo is lost.
const echoTimeout = sim.Millisecond

func (c *echoClient) send() {
	p := make([]byte, 64)
	for i := 8; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], c.rng.Uint64())
	}
	c.sent = append(c.sent, p)
	seq := uint64(len(c.sent))
	binary.LittleEndian.PutUint64(p, seq)
	c.waiting = seq
	c.st.Send(ethernet.Frame{Dst: c.target, EtherType: ethernet.EtherTypePlain, Payload: p}, nil)
	c.eng.After(echoTimeout, func() {
		if c.waiting == seq {
			c.send()
		}
	})
}

func (c *echoClient) onEcho(f ethernet.Frame) {
	if len(f.Payload) < 8 {
		c.bad++
		return
	}
	seq := binary.LittleEndian.Uint64(f.Payload)
	if seq == 0 || seq > uint64(len(c.sent)) || !bytes.Equal(f.Payload, c.sent[seq-1]) {
		c.bad++
		return
	}
	c.matched++
	if seq == c.waiting {
		c.waiting = 0
		c.send()
	}
}

// Every echo matches its request byte for byte under all four models, on a
// clean rack and under the chaos fault profile (frame loss, corruption and
// reordering on every cable, squeezed client rings, VF carrier flaps and
// IOhost worker stalls), whose drops run the datapath's release-on-drop
// paths.
func TestNetRREchoPayloadIntegrity(t *testing.T) {
	chaos, err := fault.ParseProfile("chaos")
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range []struct {
		name string
		p    *fault.Profile
	}{{"clean", nil}, {"chaos", chaos}} {
		for _, m := range netRRModels {
			t.Run(prof.name+"/"+string(m), func(t *testing.T) {
				tb := Build(Spec{
					Model: m, VMHosts: 2, VMsPerHost: 4,
					SidecoresPerHost: 1, IOhostSidecores: 2,
					StationPerVM: true, Seed: 3, Fault: prof.p,
				})
				rng := sim.NewRNG(11)
				var clients []*echoClient
				for i, g := range tb.Guests {
					workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
					c := &echoClient{eng: tb.Eng, st: tb.StationFor(i), target: g.MAC(), rng: rng.Fork()}
					c.st.Subscribe(g.MAC(), c.onEcho)
					clients = append(clients, c)
					c.send()
				}
				tb.Eng.RunUntil(20 * sim.Millisecond)
				matched, sent := 0, 0
				for i, c := range clients {
					if c.bad > 0 {
						t.Errorf("guest %d: %d echoes did not match their request", i, c.bad)
					}
					matched += c.matched
					sent += len(c.sent)
				}
				if matched < sent/2 || matched < 500 {
					t.Errorf("only %d of %d requests echoed", matched, sent)
				}
			})
		}
	}
}
