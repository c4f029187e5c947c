package blockdev

import (
	"errors"
	"testing"

	"vrio/internal/sim"
)

func volSpec() VolumeSpec {
	return VolumeSpec{
		Stripes: 3, Replicas: 2, WriteQuorum: 1,
		ExtentSectors: 8, CapacitySectors: 64, Queues: 1,
	}
}

func TestVolumeSpecValidate(t *testing.T) {
	good := volSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []func(*VolumeSpec){
		func(s *VolumeSpec) { s.Stripes = 0 },
		func(s *VolumeSpec) { s.Replicas = 0 },
		func(s *VolumeSpec) { s.Replicas = 4 }, // > stripes
		func(s *VolumeSpec) { s.WriteQuorum = 0 },
		func(s *VolumeSpec) { s.WriteQuorum = 3 }, // > replicas
		func(s *VolumeSpec) { s.ExtentSectors = 0 },
		func(s *VolumeSpec) { s.CapacitySectors = 0 },
		func(s *VolumeSpec) { s.Queues = 0 },
		func(s *VolumeSpec) { s.Queues = 300 },
	}
	for i, mut := range cases {
		s := volSpec()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: bad spec accepted: %+v", i, s)
		}
	}
	if got := good.NumExtents(); got != 8 {
		t.Fatalf("NumExtents = %d, want 8", got)
	}
	if got := good.ExtentOf(17); got != 2 {
		t.Fatalf("ExtentOf(17) = %d, want 2", got)
	}
}

func TestExtentMapLayoutAndRetarget(t *testing.T) {
	spec := volSpec()
	m := NewExtentMap(spec)
	// Default rotation: slot j of extent e on host (e+j) mod 3.
	for e := uint64(0); e < spec.NumExtents(); e++ {
		for slot := 0; slot < spec.Replicas; slot++ {
			want := int((e + uint64(slot)) % 3)
			if got := m.Replica(e, slot); got != want {
				t.Fatalf("Replica(%d,%d) = %d, want %d", e, slot, got, want)
			}
			if got := m.Slot(e, want); got != slot {
				t.Fatalf("Slot(%d,%d) = %d, want %d", e, want, got, slot)
			}
		}
	}
	// Replica slots of one extent land on distinct hosts.
	if m.Replica(5, 0) == m.Replica(5, 1) {
		t.Fatal("replica slots collided on one host")
	}
	// Retarget moves exactly one cell.
	m.Retarget(5, 1, 1)
	if got := m.Replica(5, 1); got != 1 {
		t.Fatalf("after Retarget, Replica(5,1) = %d, want 1", got)
	}
	if got := m.Replica(5, 0); got != 2 {
		t.Fatalf("Retarget disturbed slot 0: %d, want 2", got)
	}
	if got := m.Replica(4, 1); got != 2 {
		t.Fatalf("Retarget disturbed extent 4: %d, want 2", got)
	}
	if got := m.Slot(5, 1); got != 1 {
		t.Fatalf("Slot(5,1) after retarget = %d, want 1", got)
	}
	if got := m.Slot(5, 0); got != -1 {
		t.Fatalf("Slot(5,0) after retarget = %d, want -1", got)
	}
}

// replicaDevice builds a replica-enabled device over a tiny store with
// volSpec's extent geometry (8-sector extents).
func replicaDevice(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	store := NewStore(512, 64)
	dev := NewDevice(eng, store, sim.Microsecond, 1)
	dev.AttachReplica(NewReplicaState(volSpec()))
	return eng, dev
}

func submit(t *testing.T, eng *sim.Engine, dev *Device, req Request) Response {
	t.Helper()
	var got *Response
	dev.Submit(req, func(r Response) {
		r.Data = append([]byte(nil), r.Data...) // r.Data is borrowed
		got = &r
	})
	eng.Run()
	if got == nil {
		t.Fatal("request never completed")
	}
	return *got
}

func TestReplicaVersionChecks(t *testing.T) {
	eng, dev := replicaDevice(t)
	data := make([]byte, 512)
	for i := range data {
		data[i] = 0xAB
	}

	// v1 write lands.
	if r := submit(t, eng, dev, Request{Op: OpVolWrite, Sector: 8, Data: data, Extent: 1, Version: 1}); r.Err != nil {
		t.Fatalf("v1 write failed: %v", r.Err)
	}
	if got := dev.Replica().Version(1); got != 1 {
		t.Fatalf("extent version = %d, want 1", got)
	}
	// A sub-extent v3 write after v1 is a gap — the replica missed v2, and
	// advancing the fence past the gap would let v2's sectors read back
	// stale. It must be refused, leaving the ledger at v1.
	r := submit(t, eng, dev, Request{Op: OpVolWrite, Sector: 8, Data: data, Extent: 1, Version: 3})
	if !errors.Is(r.Err, ErrVersionGap) {
		t.Fatalf("gapped write: got %v, want ErrVersionGap", r.Err)
	}
	if got := dev.Replica().Version(1); got != 1 {
		t.Fatalf("gapped write moved the ledger to v%d, want v1", got)
	}
	// The contiguous v2 write lands.
	if r := submit(t, eng, dev, Request{Op: OpVolWrite, Sector: 8, Data: data, Extent: 1, Version: 2}); r.Err != nil {
		t.Fatalf("v2 write failed: %v", r.Err)
	}
	// A stale v1 re-write is rejected.
	r = submit(t, eng, dev, Request{Op: OpVolWrite, Sector: 8, Data: data, Extent: 1, Version: 1})
	if !errors.Is(r.Err, ErrStaleWrite) {
		t.Fatalf("stale write: got %v, want ErrStaleWrite", r.Err)
	}
	// A full-extent write (extent 1 = sectors 8..16, 8 sectors) replaces
	// every byte, so it may jump the version: v5 after v2 is accepted.
	fullData := make([]byte, 8*512)
	for i := range fullData {
		fullData[i] = 0xCD
	}
	if r := submit(t, eng, dev, Request{Op: OpVolWrite, Sector: 8, Data: fullData, Extent: 1, Version: 5}); r.Err != nil {
		t.Fatalf("full-extent v5 write failed: %v", r.Err)
	}
	if got := dev.Replica().Version(1); got != 5 {
		t.Fatalf("extent version = %d, want 5", got)
	}
	// Reads demanding <= v5 succeed and report the replica's version; a
	// read demanding v6 is refused.
	rr := submit(t, eng, dev, Request{Op: OpVolRead, Sector: 8, Sectors: 1, Extent: 1, Version: 5})
	if rr.Err != nil || rr.Data[0] != 0xCD {
		t.Fatalf("v5 read: err=%v", rr.Err)
	}
	if rr.Version != 5 {
		t.Fatalf("read reported replica version %d, want 5", rr.Version)
	}
	rr = submit(t, eng, dev, Request{Op: OpVolRead, Sector: 8, Sectors: 1, Extent: 1, Version: 6})
	if !errors.Is(rr.Err, ErrStaleReplica) {
		t.Fatalf("stale replica read: got %v, want ErrStaleReplica", rr.Err)
	}
}

// TestReplicaCoversExtent pins the full-extent detection the version fence's
// jump rule rests on, including the final partial extent.
func TestReplicaCoversExtent(t *testing.T) {
	rs := NewReplicaState(VolumeSpec{
		Stripes: 1, Replicas: 1, WriteQuorum: 1,
		ExtentSectors: 8, CapacitySectors: 60, Queues: 1, // final extent: 4 sectors
	})
	if !rs.CoversExtent(1, 8, 8*512, 512) {
		t.Fatal("whole 8-sector extent not recognized as full")
	}
	if rs.CoversExtent(1, 8, 4*512, 512) {
		t.Fatal("half an extent recognized as full")
	}
	if rs.CoversExtent(1, 12, 8*512, 512) {
		t.Fatal("misaligned 8-sector span recognized as full")
	}
	// Extent 7 is the 4-sector tail (sectors 56..60).
	if !rs.CoversExtent(7, 56, 4*512, 512) {
		t.Fatal("full partial tail extent not recognized as full")
	}
	if rs.CoversExtent(7, 56, 8*512, 512) {
		t.Fatal("overlong tail write recognized as full")
	}
	if rs.CoversExtent(8, 64, 8*512, 512) {
		t.Fatal("out-of-range extent recognized as full")
	}
}

func TestVolOpsNeedReplicaState(t *testing.T) {
	eng := sim.NewEngine()
	dev := NewDevice(eng, NewStore(512, 64), sim.Microsecond, 1)
	r := submit(t, eng, dev, Request{Op: OpVolWrite, Sector: 0, Data: make([]byte, 512), Version: 1})
	if !errors.Is(r.Err, ErrNotReplica) {
		t.Fatalf("vol write on plain device: got %v, want ErrNotReplica", r.Err)
	}
}

func TestSchedulerSpansVolOps(t *testing.T) {
	s := NewScheduler(nil, 512)
	sector, n := s.span(Request{Op: OpVolWrite, Sector: 4, Data: make([]byte, 1024)})
	if sector != 4 || n != 2 {
		t.Fatalf("vol-write span = (%d,%d), want (4,2)", sector, n)
	}
	sector, n = s.span(Request{Op: OpVolRead, Sector: 4, Sectors: 3})
	if sector != 4 || n != 3 {
		t.Fatalf("vol-read span = (%d,%d), want (4,3)", sector, n)
	}
}
