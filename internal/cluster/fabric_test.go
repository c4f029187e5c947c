package cluster

import (
	"fmt"
	"strings"
	"testing"

	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// testFabricSpec is a small 3-rack vRIO fabric the equivalence and traffic
// tests share.
func testFabricSpec() FabricSpec {
	return FabricSpec{
		Rack: Spec{
			Model:        core.ModelVRIO,
			VMHosts:      1,
			VMsPerHost:   2,
			StationPerVM: true,
			Seed:         7,
		},
		NumRacks:  3,
		NumSpines: 2,
	}
}

// crossRackRR starts one Netperf RR per rack whose station lives in rack r
// and whose server guest lives in rack (r+1)%N — every transaction crosses
// the spine twice. Returns the RRs (indexed by client rack) and the
// per-rack collector lists for RunMeasured.
func crossRackRR(f *Fabric) ([]*workload.RR, [][]*workload.Results) {
	n := len(f.Racks)
	rrs := make([]*workload.RR, n)
	perRack := make([][]*workload.Results, n)
	for r := 0; r < n; r++ {
		server := f.Racks[(r+1)%n]
		workload.InstallRRServer(server.Guests[0], server.P.NetperfRRProcessCost)
		rr := workload.NewRR(f.Racks[r].StationFor(0), server.Guests[0].MAC(), 16)
		rr.Start()
		rrs[r] = rr
		// The RR's results mutate on the client station's engine: rack r.
		perRack[r] = append(perRack[r], &rr.Results)
	}
	return rrs, perRack
}

// fabricFingerprint serializes everything an experiment could observe:
// per-RR ops and latency stats, per-shard event counts, and the fabric
// switches' forwarding counters. Any divergence between runs shows up here.
func fabricFingerprint(f *Fabric, rrs []*workload.RR) string {
	var b strings.Builder
	for i, rr := range rrs {
		fmt.Fprintf(&b, "rr%d ops=%d errs=%d mean=%.3f p99=%d\n",
			i, rr.Results.Ops, rr.Results.Errors, rr.Results.Latency.Mean(),
			rr.Results.Latency.Percentile(99))
	}
	for r, tb := range f.Racks {
		fmt.Fprintf(&b, "rack%d executed=%d now=%d tor_fwd=%d tor_flood=%d tor_drops=%d\n",
			r, tb.Eng.Executed(), tb.Eng.Now(), tb.Switch.Forwarded, tb.Switch.Flooded,
			tb.Switch.Drops.Total())
	}
	for s, sw := range f.Spines {
		fmt.Fprintf(&b, "spine%d fwd=%d flood=%d drops=%d\n",
			s, sw.Forwarded, sw.Flooded, sw.Drops.Total())
	}
	fmt.Fprintf(&b, "windows=%d spine_executed=%d\n", f.Group.Windows, f.SpineShard.Eng.Executed())
	return b.String()
}

func runFabricCell(t *testing.T, workers int) string {
	t.Helper()
	f, err := BuildFabric(testFabricSpec())
	if err != nil {
		t.Fatalf("BuildFabric: %v", err)
	}
	defer f.Close()
	rrs, perRack := crossRackRR(f)
	f.RunMeasured(2*sim.Millisecond, 20*sim.Millisecond, workers, perRack)
	for i, rr := range rrs {
		if rr.Results.Ops == 0 {
			t.Fatalf("workers=%d: cross-rack RR %d completed no transactions", workers, i)
		}
	}
	return fabricFingerprint(f, rrs)
}

// TestFabricShardedMatchesSerialByteIdentical is the tentpole's determinism
// contract, in the spirit of TestParallelMatchesSerialByteIdentical: the
// same fabric topology and seed must produce byte-identical observable
// output whether the shard windows execute serially or on many workers.
func TestFabricShardedMatchesSerialByteIdentical(t *testing.T) {
	serial := runFabricCell(t, 1)
	for _, workers := range []int{2, 4, 8} {
		if got := runFabricCell(t, workers); got != serial {
			t.Fatalf("workers=%d output diverged from serial run:\n--- serial ---\n%s--- workers=%d ---\n%s",
				workers, serial, workers, got)
		}
	}
}

// TestFabricCrossRackTraffic checks the data actually traverses the spine
// tier: every transaction's request and reply each cross two fabric cables.
func TestFabricCrossRackTraffic(t *testing.T) {
	f, err := BuildFabric(testFabricSpec())
	if err != nil {
		t.Fatalf("BuildFabric: %v", err)
	}
	defer f.Close()
	rrs, perRack := crossRackRR(f)
	f.RunMeasured(2*sim.Millisecond, 20*sim.Millisecond, 2, perRack)
	var spineFwd uint64
	for _, sw := range f.Spines {
		spineFwd += sw.Forwarded
		if sw.Drops.Total() != 0 {
			t.Fatalf("spine dropped %d frames", sw.Drops.Total())
		}
	}
	var ops uint64
	for _, rr := range rrs {
		ops += rr.Results.Ops
	}
	if spineFwd < 2*ops {
		t.Fatalf("spines forwarded %d frames for %d cross-rack transactions; want >= %d",
			spineFwd, ops, 2*ops)
	}
	for _, sh := range f.RackShards {
		if sh.Received == 0 {
			t.Fatalf("rack shard %d received no cross-shard messages", sh.ID)
		}
	}
}

// TestFabricIntraRackStaysLocal: a fabric whose workloads never leave their
// racks must push zero frames through the spine tier.
func TestFabricIntraRackStaysLocal(t *testing.T) {
	f, err := BuildFabric(testFabricSpec())
	if err != nil {
		t.Fatalf("BuildFabric: %v", err)
	}
	defer f.Close()
	perRack := make([][]*workload.Results, len(f.Racks))
	for r, tb := range f.Racks {
		perRack[r] = append(perRack[r], tb.StartRR(0))
	}
	f.RunMeasured(2*sim.Millisecond, 10*sim.Millisecond, 2, perRack)
	for s, sw := range f.Spines {
		if sw.Forwarded != 0 {
			t.Fatalf("spine %d forwarded %d frames for purely local traffic", s, sw.Forwarded)
		}
	}
}

// TestFabricSpecValidation covers the cluster-level half of the topology
// validation satellite (the link-level half lives in internal/link).
func TestFabricSpecValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*FabricSpec)
		wantSub string
	}{
		{"no racks", func(s *FabricSpec) { s.NumRacks = 0 }, "at least one rack"},
		{"negative oversubscription", func(s *FabricSpec) { s.Oversubscription = -1 }, "oversubscription"},
		{"no spines", func(s *FabricSpec) { s.NumSpines = -1 }, "spine"},
		{"rack without sidecores", func(s *FabricSpec) { s.Rack.IOhostSidecores = -1 }, "IOhostSidecores must be at least 1"},
		{"rack without VMs", func(s *FabricSpec) { s.Rack.VMsPerHost = -1 }, "VMsPerHost must be at least 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := testFabricSpec()
			tc.mutate(&fs)
			_, err := BuildFabric(fs) // must error descriptively, never panic
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestFabricMACBlocksDisjoint: every rack's addresses live in its own block,
// and the locator maps each guest back to its rack.
func TestFabricMACBlocksDisjoint(t *testing.T) {
	f, err := BuildFabric(testFabricSpec())
	if err != nil {
		t.Fatalf("BuildFabric: %v", err)
	}
	defer f.Close()
	locate := rackLocator(len(f.Racks))
	seen := make(map[string]string)
	for r, tb := range f.Racks {
		for g, guest := range tb.Guests {
			mac := guest.MAC()
			who := fmt.Sprintf("rack%d guest%d", r, g)
			if prev, dup := seen[mac.String()]; dup {
				t.Fatalf("%s and %s share MAC %s", prev, who, mac)
			}
			seen[mac.String()] = who
			if rr, ok := locate(mac); !ok || rr != r {
				t.Fatalf("locator(%s) = (%d, %v), want (%d, true)", mac, rr, ok, r)
			}
		}
	}
}

// A volume's replica stores share pages without a lock because they run on
// one engine: BuildFabric builds each rack, its volumes included, on the
// rack's own shard, so no shard boundary splits a volume. The fabric runs
// the blk-rw driver on two racks' R3/W2 volumes at two workers (the race
// detector watches it in `make race`), and every verified read matches.
func TestFabricVolumesStayInTheirRack(t *testing.T) {
	fs := FabricSpec{NumRacks: 2, Rack: blkRWBeds(3)[1].spec}
	f, err := BuildFabric(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	drivers := make([][]*blkRWGuest, len(f.Racks))
	for r, tb := range f.Racks {
		if tb.Eng != f.RackShards[r].Eng || len(tb.Volumes) != len(tb.Guests) {
			t.Fatalf("rack %d: testbed off its shard's engine, or %d volumes for %d guests", r, len(tb.Volumes), len(tb.Guests))
		}
		drivers[r] = newBlkRWDriver(tb, uint64(r+1))
	}
	f.Group.RunUntil(8*sim.Millisecond, 2)
	for r, gs := range drivers {
		for i, g := range gs {
			if g.ops == 0 || g.verified == 0 || g.mismatches > 0 || g.errs > 0 {
				t.Errorf("rack %d guest %d: %d ops, %d verified reads, %d mismatches, %d errors",
					r, i, g.ops, g.verified, g.mismatches, g.errs)
			}
		}
	}
}
