package cluster

import (
	"bytes"
	"testing"

	"vrio/internal/core"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// buildWithStandby is §4.6's fallback IOhost: two IOhosts with default
// placement, so every guest is served by IOhost 0 and IOhost 1 is cabled but
// idle.
func buildWithStandby(t *testing.T, blockLatency sim.Time) *Testbed {
	t.Helper()
	return Build(Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 1,
		NumIOhosts: 2, WithBlock: true, NoJitter: true, Seed: 71,
		Params: ramdisk(blockLatency),
	})
}

// ramdisk returns the default parameters with every block device's access
// latency set to lat (0 keeps the default).
func ramdisk(lat sim.Time) *params.P {
	p := params.Default()
	if lat != 0 {
		p.RamdiskLatency = lat
	}
	return &p
}

// failOverToStandby crashes IOhost 0 and re-homes every guest onto IOhost 1
// by hand: the cluster-level path that rack.Controller drives from its
// heartbeat detector.
func failOverToStandby(tb *Testbed) {
	tb.IOHyps[0].Fail()
	for vm := range tb.ClientIOhost {
		tb.RehomeClient(vm, 1)
	}
}

func TestFailoverTrafficResumesOnSecondary(t *testing.T) {
	tb := buildWithStandby(t, 0)
	g := tb.Guests[0]
	workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
	rr := workload.NewRR(tb.Stations[0], g.MAC(), 16)
	rr.Start()
	rr.Results.StartMeasuring()

	primary, standby := tb.IOHyps[0], tb.IOHyps[1]
	var opsAtFailure, netInAtFailure, standbyAtFailure uint64
	tb.Eng.At(20*sim.Millisecond, func() {
		opsAtFailure = rr.Results.Ops
		netInAtFailure = primary.Counters.Get("net_in")
		standbyAtFailure = standby.Counters.Get("msgs")
		failOverToStandby(tb)
	})
	tb.Eng.RunUntil(150 * sim.Millisecond)

	if opsAtFailure == 0 {
		t.Fatal("no traffic before the failure")
	}
	if standbyAtFailure != 0 {
		t.Errorf("standby served %d msgs before the failure, want it idle", standbyAtFailure)
	}
	if rr.Results.Ops <= opsAtFailure+20 {
		t.Errorf("traffic did not resume on the fallback IOhost: %d -> %d",
			opsAtFailure, rr.Results.Ops)
	}
	if !primary.Failed() {
		t.Error("primary not marked failed")
	}
	if standby.Counters.Get("msgs") == 0 {
		t.Error("fallback IOhost processed nothing")
	}
	// The crashed primary must process nothing after the failure.
	if got := primary.Counters.Get("net_in"); got != netInAtFailure {
		t.Errorf("primary kept serving after Fail(): net_in %d -> %d", netInAtFailure, got)
	}
}

func TestFailoverBlockRequestsSurvive(t *testing.T) {
	// A slow device so the crash lands while the request is in flight.
	tb := buildWithStandby(t, 5*sim.Millisecond)
	g := tb.Guests[0]
	payload := bytes.Repeat([]byte{0x3C}, 4096)
	completions := 0
	var werr error
	tb.Eng.At(1*sim.Millisecond, func() {
		g.WriteBlock(40, payload, func(err error) {
			completions++
			werr = err
		})
	})
	// Crash the primary after the request reached it but before its 5 ms
	// device access completes; the re-home comes 2 ms later, as a detector
	// would, so the front-end first retransmits into the dead IOhost.
	tb.Eng.At(2*sim.Millisecond, func() { tb.IOHyps[0].Fail() })
	tb.Eng.At(4*sim.Millisecond, func() { failOverToStandby(tb) })
	tb.Eng.RunUntil(500 * sim.Millisecond)
	if completions != 1 {
		t.Fatalf("block completion arrived %d times, want exactly once", completions)
	}
	if werr != nil {
		t.Fatalf("block write failed: %v", werr)
	}
	got, err := tb.BlockDevices[0].Store().Read(40, 8)
	if err != nil || !bytes.Equal(got, payload) {
		t.Error("shared store missing the write served by the fallback")
	}
	if tb.VRIOClients[0].Driver.Counters.Get("retransmits") == 0 {
		t.Error("failover recovery did not exercise retransmission")
	}
}

func TestRehomeBlockRequestsSurvive(t *testing.T) {
	// Two IOhosts and a manual RehomeClient while a write is in flight. The
	// §4.5 retransmission machinery plus the destination's fresh
	// registrations must deliver the completion exactly once.
	tb := Build(Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 1,
		NumIOhosts: 2, WithBlock: true, NoJitter: true, Seed: 74,
		Params: ramdisk(5 * sim.Millisecond),
	})
	g := tb.Guests[0]
	payload := bytes.Repeat([]byte{0x9B}, 4096)
	completions := 0
	var werr error
	tb.Eng.At(1*sim.Millisecond, func() {
		g.WriteBlock(40, payload, func(err error) {
			completions++
			werr = err
		})
	})
	// Crash IOhost 0 and re-home by hand (the rack controller automates
	// this; here the cluster-level path is under test) while the 5 ms device
	// access is pending.
	tb.Eng.At(2*sim.Millisecond, func() {
		tb.IOHyp.Fail()
		tb.RehomeClient(0, 1)
		tb.RehomeClient(1, 1)
	})
	tb.Eng.RunUntil(500 * sim.Millisecond)
	if completions != 1 {
		t.Fatalf("block completion arrived %d times, want exactly once", completions)
	}
	if werr != nil {
		t.Fatalf("block write failed: %v", werr)
	}
	got, err := tb.BlockDevices[0].Store().Read(40, 8)
	if err != nil || !bytes.Equal(got, payload) {
		t.Error("shared store missing the re-homed write")
	}
	if tb.VRIOClients[0].Driver.Counters.Get("retransmits") == 0 {
		t.Error("re-home recovery did not exercise retransmission")
	}
	if tb.ClientIOhost[0] != 1 || tb.ClientIOhost[1] != 1 {
		t.Errorf("ClientIOhost not updated: %v", tb.ClientIOhost)
	}
	if tb.IOHyps[1].Counters.Get("blk_reqs") == 0 {
		t.Error("survivor IOhost served no block requests")
	}
}

func TestNoFailoverBlockRequestsDie(t *testing.T) {
	// Without a fallback, a crashed IOhost exhausts the §4.5 budget and
	// the front-end raises a device error — the failure mode the paper
	// warns about ("If the IOhost fails, VMhosts cease to be reachable").
	tb := Build(Spec{
		Model: core.ModelVRIO, VMsPerHost: 1, WithBlock: true,
		NoJitter: true, Seed: 73,
	})
	g := tb.Guests[0]
	var werr error
	completed := false
	tb.Eng.At(1*sim.Millisecond, func() {
		tb.IOHyp.Fail()
		g.WriteBlock(8, make([]byte, 512), func(err error) {
			completed = true
			werr = err
		})
	})
	tb.Eng.RunUntil(2 * sim.Second)
	if !completed {
		t.Fatal("request neither completed nor errored")
	}
	if werr == nil {
		t.Error("write against a dead IOhost succeeded")
	}
}
