package fault

import (
	"fmt"
	"testing"

	"vrio/internal/ethernet"
	"vrio/internal/link"
	"vrio/internal/sim"
)

func testFrame(i int) []byte {
	f := ethernet.Frame{
		Dst: ethernet.NewMAC(2), Src: ethernet.NewMAC(1),
		EtherType: ethernet.EtherTypePlain,
		Payload:   []byte(fmt.Sprintf("payload-%04d", i)),
	}
	return f.EncodeTo(make([]byte, f.Len()))
}

// runLossyWire pushes n frames through one faulted wire and returns a
// signature of everything observable: delivery order/count and all tallies.
func runLossyWire(seed uint64, n int) string {
	e := sim.NewEngine()
	var got []string
	w := link.NewWire(e, 8e9, 100, link.ReceiverFunc(func(frame []byte) {
		f, _ := ethernet.Decode(frame)
		got = append(got, string(f.Payload))
	}))
	p := NewPlan(e, &Profile{Links: []LinkFault{{
		Where: Anywhere, Host: Any, IOhost: Any,
		LossProb: 0.1, CorruptProb: 0.05,
		JitterProb: 0.2, JitterMean: 3000,
		ReorderProb: 0.05, ReorderDelay: 5000,
	}}}, seed)
	p.AttachWire(Channels, 0, 0, w)
	p.Start()
	for i := 0; i < n; i++ {
		w.Send(testFrame(i))
	}
	e.Run()
	return fmt.Sprintf("order=%v drops=%v corrupted=%d delivered=%d counters=%d/%d/%d/%d",
		got, w.Drops, w.Corrupted, w.Delivered,
		p.Counters.Get("frames_dropped"), p.Counters.Get("frames_corrupted"),
		p.Counters.Get("frames_jittered"), p.Counters.Get("frames_reordered"))
}

// TestPlanDeterministicPerSeed: same seed, byte-identical faults; a
// different seed produces a different run.
func TestPlanDeterministicPerSeed(t *testing.T) {
	a := runLossyWire(42, 400)
	b := runLossyWire(42, 400)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if c := runLossyWire(43, 400); c == a {
		t.Error("different seed produced identical faults (suspicious)")
	}
}

// TestPlanConservationUnderAllFaults: even with every fault kind firing,
// offered == delivered + dropped across the plan's wires.
func TestPlanConservationUnderAllFaults(t *testing.T) {
	e := sim.NewEngine()
	delivered := 0
	w := link.NewWire(e, 8e9, 100, link.ReceiverFunc(func([]byte) { delivered++ }))
	p := NewPlan(e, &Profile{Links: []LinkFault{{
		Where: Anywhere, Host: Any, IOhost: Any,
		LossProb: 0.2, CorruptProb: 0.2, JitterProb: 0.3, JitterMean: 2000,
		ReorderProb: 0.1, ReorderDelay: 4000,
	}}}, 7)
	p.AttachWire(Channels, 0, 0, w)
	for i := 0; i < 500; i++ {
		w.Send(testFrame(i))
	}
	e.Run()
	if w.Frames != w.Delivered+w.Drops.Total() {
		t.Fatalf("conservation: %d offered != %d delivered + %d dropped",
			w.Frames, w.Delivered, w.Drops.Total())
	}
	if p.WireOffered() != p.WireDelivered()+p.WireDrops(link.DropInjected)+p.WireDrops(link.DropCorruptFCS) {
		t.Error("plan-level aggregation does not add up")
	}
	if p.Counters.Get("frames_corrupted") != p.WireDrops(link.DropCorruptFCS) {
		t.Errorf("every corrupted frame must die at the FCS check: corrupted=%d, fcs drops=%d",
			p.Counters.Get("frames_corrupted"), p.WireDrops(link.DropCorruptFCS))
	}
}

// TestCableCfgSelectors: class and index selectors gate which cables arm.
func TestCableCfgSelectors(t *testing.T) {
	e := sim.NewEngine()
	p := NewPlan(e, &Profile{Links: []LinkFault{
		{Where: Channels, Host: 1, IOhost: Any, LossProb: 0.5},
		{Where: Uplinks, Host: Any, IOhost: 0, LossProb: 0.25},
	}}, 1)
	if cfg := p.cableCfg(Channels, 1, 0); cfg.loss != 0.5 {
		t.Errorf("channel host=1 loss = %v, want 0.5", cfg.loss)
	}
	if cfg := p.cableCfg(Channels, 0, 0); cfg.active() {
		t.Error("channel host=0 should not match a Host:1 fault")
	}
	if cfg := p.cableCfg(Uplinks, Any, 0); cfg.loss != 0.25 {
		t.Errorf("uplink iohost=0 loss = %v, want 0.25", cfg.loss)
	}
	if cfg := p.cableCfg(Stations, 3, Any); cfg.active() {
		t.Error("station cable matched nothing, should stay clean")
	}
	// Overlapping faults combine as independent probabilities.
	p2 := NewPlan(e, &Profile{Links: []LinkFault{
		{Host: Any, IOhost: Any, LossProb: 0.5},
		{Host: Any, IOhost: Any, LossProb: 0.5},
	}}, 1)
	if cfg := p2.cableCfg(Channels, 0, 0); cfg.loss != 0.75 {
		t.Errorf("combined loss = %v, want 0.75", cfg.loss)
	}
}

// fakePort records carrier and ring-cap calls.
type fakePort struct {
	up   bool
	caps []int
	ups  []bool
}

func (f *fakePort) SetLinkUp(up bool) { f.up = up; f.ups = append(f.ups, up) }
func (f *fakePort) SetRingCap(n int)  { f.caps = append(f.caps, n) }

// fakeStaller records stall windows.
type fakeStaller struct{ stalls []sim.Time }

func (f *fakeStaller) StallWorkers(d sim.Time) { f.stalls = append(f.stalls, d) }

// TestFlapperAndStallerSchedules: timed faults fire repeatedly with the
// configured down/stall windows, deterministically per seed.
func TestFlapperAndStallerSchedules(t *testing.T) {
	e := sim.NewEngine()
	p := NewPlan(e, &Profile{
		Ports:   []PortFault{{VM: Any, FlapEvery: 1000, FlapFor: 100, RingCap: 8}},
		Workers: []WorkerFault{{IOhost: 0, StallEvery: 2000, StallFor: 300}},
	}, 11)
	port := &fakePort{up: true}
	st := &fakeStaller{}
	missed := &fakeStaller{}
	p.AttachVF(0, port)
	p.AttachIOhost(0, st)
	p.AttachIOhost(1, missed) // WorkerFault selects IOhost 0 only
	p.Start()
	e.RunUntil(20000)

	if len(port.caps) != 1 || port.caps[0] != 8 {
		t.Errorf("ring cap calls = %v, want [8]", port.caps)
	}
	if p.Counters.Get("flaps") < 2 {
		t.Errorf("flaps = %d, want several over 20 mean intervals", p.Counters.Get("flaps"))
	}
	// Carrier strictly alternates down/up and ends restored.
	for i, up := range port.ups {
		if up != (i%2 == 1) {
			t.Fatalf("carrier sequence %v not alternating", port.ups)
		}
	}
	if len(st.stalls) == 0 {
		t.Error("staller never fired")
	}
	for _, d := range st.stalls {
		if d != 300 {
			t.Errorf("stall window %v, want 300", d)
		}
	}
	if len(missed.stalls) != 0 {
		t.Errorf("IOhost 1 stalled %d times, fault selects IOhost 0 only", len(missed.stalls))
	}
	if !p.Active() {
		t.Error("Active() false with armed sites")
	}
}

func TestParseProfile(t *testing.T) {
	if p, err := ParseProfile(""); p != nil || err != nil {
		t.Errorf("empty profile = %v, %v; want nil, nil", p, err)
	}
	for _, name := range PresetNames() {
		p, err := ParseProfile(name)
		if err != nil || p == nil {
			t.Errorf("preset %q: %v, %v", name, p, err)
		}
	}
	p, err := ParseProfile(`{"links":[{"where":"channel","loss":0.02}],"ports":[{"vm":1,"ring_cap":32}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Links) != 1 || p.Links[0].LossProb != 0.02 || p.Links[0].Where != Channels {
		t.Errorf("JSON links = %+v", p.Links)
	}
	if p.Links[0].Host != Any || p.Links[0].IOhost != Any {
		t.Errorf("omitted selectors must default to Any, got %+v", p.Links[0])
	}
	if len(p.Ports) != 1 || p.Ports[0].VM != 1 || p.Ports[0].RingCap != 32 {
		t.Errorf("JSON ports = %+v", p.Ports)
	}
	if _, err := ParseProfile("no-such-preset"); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := ParseProfile("{broken json"); err == nil {
		t.Error("broken JSON accepted")
	}
}

// TestNilProfilePlanInert: a nil profile arms nothing and never touches
// the wires.
func TestNilProfilePlanInert(t *testing.T) {
	e := sim.NewEngine()
	p := NewPlan(e, nil, 1)
	w := link.NewWire(e, 8e9, 0, nil)
	p.AttachWire(Channels, 0, 0, w)
	p.AttachVF(0, &fakePort{})
	p.AttachIOhost(0, &fakeStaller{})
	p.Start()
	if p.Active() {
		t.Error("nil profile armed an injection site")
	}
}
