package rack

import (
	"slices"
	"testing"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// dcFabric builds a 2-rack fabric with 2 IOhosts per rack and RR traffic on
// every guest (heartbeats need nothing, but rebalance reads want load).
func dcFabric(t *testing.T) (*cluster.Fabric, [][]*workload.Results) {
	t.Helper()
	f, err := cluster.BuildFabric(cluster.FabricSpec{
		Rack: cluster.Spec{
			Model: core.ModelVRIO, VMHosts: 1, VMsPerHost: 2,
			NumIOhosts: 2, StationPerVM: true, NoJitter: true, Seed: 11,
		},
		NumRacks: 2,
	})
	if err != nil {
		t.Fatalf("BuildFabric: %v", err)
	}
	perRack := make([][]*workload.Results, len(f.Racks))
	for r, tb := range f.Racks {
		perRack[r] = tb.StartEach(tb.StartRR)
	}
	return f, perRack
}

// TestDatacenterIntraRackRehome: an IOhost failure in one rack is detected
// and healed entirely inside that rack; the other rack's controller never
// acts.
func TestDatacenterIntraRackRehome(t *testing.T) {
	f, perRack := dcFabric(t)
	defer f.Close()
	d := NewDatacenter(f, Config{HeartbeatInterval: sim.Millisecond / 2})
	d.Start()
	f.Racks[1].Eng.At(5*sim.Millisecond, func() { f.Racks[1].IOHyps[0].Fail() })
	f.RunMeasured(sim.Millisecond, 19*sim.Millisecond, 2, perRack)

	if got := d.Controllers[1].Counters.Get("detections"); got != 1 {
		t.Fatalf("rack 1 detections = %d, want 1", got)
	}
	if got := d.Controllers[0].Counters.Get("detections"); got != 0 {
		t.Fatalf("rack 0 detected a failure it cannot see (%d)", got)
	}
	// Every re-home stayed inside rack 1, onto its surviving IOhost.
	rehomed := false
	for r, c := range d.Controllers {
		for _, e := range c.Events {
			if e.Kind != EventRehome {
				continue
			}
			rehomed = true
			if r != 1 {
				t.Fatalf("re-home recorded in rack %d, want 1", r)
			}
			if e.Dst != 1 {
				t.Fatalf("re-home destination IOhost %d, want the rack's survivor (1)", e.Dst)
			}
		}
	}
	if !rehomed {
		t.Fatal("no re-home events recorded")
	}
	for vm, io := range f.Racks[1].ClientIOhost {
		if io != 1 {
			t.Fatalf("rack 1 guest %d still on dead IOhost %d", vm, io)
		}
	}
	for r, c := range d.Controllers {
		if c.AliveIOhosts() == 0 {
			t.Fatalf("rack %d went dark, want none", r)
		}
	}
}

// TestDatacenterDarkRack: when every IOhost in a rack dies, the controller
// records the rack going dark instead of silently giving up.
func TestDatacenterDarkRack(t *testing.T) {
	f, perRack := dcFabric(t)
	defer f.Close()
	d := NewDatacenter(f, Config{HeartbeatInterval: sim.Millisecond / 2})
	d.Start()
	f.Racks[0].Eng.At(4*sim.Millisecond, func() {
		f.Racks[0].IOHyps[0].Fail()
		f.Racks[0].IOHyps[1].Fail()
	})
	f.RunMeasured(sim.Millisecond, 19*sim.Millisecond, 2, perRack)

	for r, c := range d.Controllers {
		if dark := c.AliveIOhosts() == 0; dark != (r == 0) {
			t.Fatalf("rack %d dark = %v, want only rack 0 dark", r, dark)
		}
	}
	if d.Controllers[0].Counters.Get("rack_dark") == 0 {
		t.Fatal("no rack_dark counter increments")
	}
	sawDark := false
	for _, e := range d.Controllers[0].Events {
		if e.Kind == EventRackDark {
			sawDark = true
		}
	}
	if !sawDark {
		t.Fatal("no EventRackDark in rack 0's log")
	}
	// Rack 1 is untouched and still fully alive.
	if got := d.Controllers[1].AliveIOhosts(); got != 2 {
		t.Fatalf("rack 1 alive IOhosts = %d, want 2", got)
	}
}

// TestDatacenterEventOrderDeterministic: every rack's event log is
// identical across worker counts (the same property the fabric equivalence
// test enforces for the datapath, applied to the control plane).
func TestDatacenterEventOrderDeterministic(t *testing.T) {
	run := func(workers int) (logs [][]Event, n int) {
		f, perRack := dcFabric(t)
		defer f.Close()
		d := NewDatacenter(f, Config{HeartbeatInterval: sim.Millisecond / 2})
		d.Start()
		for r := range f.Racks {
			r := r
			f.Racks[r].Eng.At(5*sim.Millisecond, func() { f.Racks[r].IOHyps[0].Fail() })
		}
		f.RunMeasured(sim.Millisecond, 19*sim.Millisecond, workers, perRack)
		for _, c := range d.Controllers {
			logs = append(logs, c.Events)
			n += len(c.Events)
		}
		return logs, n
	}
	serial, n := run(1)
	if n == 0 {
		t.Fatal("no events to compare")
	}
	parallel, _ := run(3)
	for r := range serial {
		if !slices.Equal(serial[r], parallel[r]) {
			t.Fatalf("rack %d's log diverged:\n%+v\nvs\n%+v", r, serial[r], parallel[r])
		}
	}
}
