package cluster

import (
	"bytes"
	"errors"
	"testing"

	"vrio/internal/blockdev"
	"vrio/internal/core"
	"vrio/internal/sim"
)

// buildVolTestbed assembles one guest with a distributed volume across
// numIO IOhosts: R replicas, write quorum W, 32 extents of 128 sectors.
func buildVolTestbed(numIO, r, w int) *Testbed {
	return Build(Spec{
		Model:       core.ModelVRIO,
		NumIOhosts:  numIO,
		VolReplicas: r,
		VolQuorum:   w,
		NoJitter:    true,
		Seed:        31,
	})
}

// replicaLedgers attaches a fresh version ledger the test holds to each of
// guest vm's replica devices, in place of the equally fresh one Build
// attached, so the test can read each replica's per-extent versions. Call it
// before any volume I/O.
func replicaLedgers(tb *Testbed, vm int) []*blockdev.ReplicaState {
	ledgers := make([]*blockdev.ReplicaState, len(tb.VolReplicaDevices[vm]))
	for i, dev := range tb.VolReplicaDevices[vm] {
		ledgers[i] = blockdev.NewReplicaState(tb.Volumes[vm].Spec())
		dev.AttachReplica(ledgers[i])
	}
	return ledgers
}

// extentPattern is the fill byte test writes stamp into extent e.
func extentPattern(e uint64) byte { return byte(0xA0 + e) }

// writeAllExtents stamps one sector into every extent through the router
// and runs the engine until the writes complete.
func writeAllExtents(t *testing.T, tb *Testbed, vol *core.VolumeRouter) {
	t.Helper()
	spec := vol.Spec()
	data := make([]byte, tb.P.SectorSize)
	completed := 0
	for e := uint64(0); e < spec.NumExtents(); e++ {
		for i := range data {
			data[i] = extentPattern(e)
		}
		vol.Write(e*spec.ExtentSectors, data, func(err error) {
			if err != nil {
				t.Errorf("write extent: %v", err)
			}
			completed++
		})
		tb.Eng.Run()
	}
	if completed != int(spec.NumExtents()) {
		t.Fatalf("completed %d writes, want %d", completed, spec.NumExtents())
	}
}

// verifyAllExtents reads every extent back through the router and checks
// the pattern, then checks that exactly Replicas of the live IOhosts' replica
// stores hold it: a cell left on a dead host, or a copy a rebuild never
// made, leaves fewer.
func verifyAllExtents(t *testing.T, tb *Testbed, vm int) {
	t.Helper()
	vol := tb.Volumes[vm]
	spec := vol.Spec()
	for e := uint64(0); e < spec.NumExtents(); e++ {
		want := make([]byte, tb.P.SectorSize)
		for i := range want {
			want[i] = extentPattern(e)
		}
		got := false
		vol.Read(e*spec.ExtentSectors, 1, func(data []byte, err error) {
			if err != nil {
				t.Fatalf("read extent %d: %v", e, err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("extent %d: router read returned wrong payload", e)
			}
			got = true
		})
		tb.Eng.Run()
		if !got {
			t.Fatalf("read of extent %d never completed", e)
		}
		held := 0
		for host, dev := range tb.VolReplicaDevices[vm] {
			if tb.IOHyps[host].Failed() {
				continue
			}
			stored, err := dev.Store().Read(e*spec.ExtentSectors, 1)
			if err != nil {
				t.Fatalf("extent %d replica on host %d: %v", e, host, err)
			}
			if bytes.Equal(stored, want) {
				held++
			}
		}
		if held != spec.Replicas {
			t.Fatalf("extent %d is stored on %d live IOhosts, want %d", e, held, spec.Replicas)
		}
	}
}

func TestVolumeQuorumWriteAndRead(t *testing.T) {
	tb := buildVolTestbed(3, 2, 2)
	vol := tb.Volumes[0]
	writeAllExtents(t, tb, vol)
	verifyAllExtents(t, tb, 0)
	if n := vol.Counters.Get("vol_writes"); n != 32 {
		t.Fatalf("vol_writes = %d, want 32", n)
	}
	// Every extent committed exactly one version.
	for e := uint64(0); e < vol.Spec().NumExtents(); e++ {
		if v := vol.Committed(e); v != 1 {
			t.Fatalf("Committed(%d) = %d, want 1", e, v)
		}
	}
}

// TestVolumeQuorumLossFailsCleanly covers both flavors of losing the write
// quorum: detected dead replicas fail synchronously, and an undetected dead
// replica fails after the retransmission budget — a clean error either way,
// never a hang.
func TestVolumeQuorumLossFailsCleanly(t *testing.T) {
	tb := buildVolTestbed(3, 2, 2)
	vol := tb.Volumes[0]

	// Undetected: IOhost 1 (slot 1 of extent 0) is dead but not yet
	// declared. The write reaches host 0, never hears from host 1, and
	// fails once the retransmit budget rules the quorum unreachable.
	tb.IOHyps[1].Fail()
	var slowErr error
	fired := false
	vol.Write(0, make([]byte, tb.P.SectorSize), func(err error) { slowErr = err; fired = true })
	tb.Eng.Run()
	if !fired {
		t.Fatal("write against undetected-dead replica hung")
	}
	if !errors.Is(slowErr, blockdev.ErrQuorumLost) {
		t.Fatalf("undetected loss: err = %v, want ErrQuorumLost", slowErr)
	}

	// Detected: after the death is declared, the same write fails
	// immediately — no transport round trip at all.
	tb.IOhostDied(1)
	fired = false
	vol.Write(0, make([]byte, tb.P.SectorSize), func(err error) {
		if !errors.Is(err, blockdev.ErrQuorumLost) {
			t.Errorf("detected loss: err = %v, want ErrQuorumLost", err)
		}
		fired = true
	})
	if !fired {
		t.Fatal("detected quorum loss was not synchronous")
	}
}

// TestVolumeStaleReadRejection drives a replica stale (it misses a write via
// an injected device failure) and shows the version fence at work: reads
// demanding the committed version refuse the stale copy, sub-extent writes
// gap-nack rather than un-fence it, and a full-extent overwrite re-silvers
// it.
func TestVolumeStaleReadRejection(t *testing.T) {
	tb := buildVolTestbed(3, 2, 1) // W=1: a write can succeed on one replica
	vol := tb.Volumes[0]
	devs := tb.VolReplicaDevices[0]
	ledgers := replicaLedgers(tb, 0)

	// Extent 0 lives on hosts 0 (slot 0) and 1 (slot 1). Make host 1's
	// device fail the incoming replica write: host 0 acks (quorum met),
	// host 1 stays at version 0.
	devs[1].FailNext = true
	data := make([]byte, tb.P.SectorSize)
	for i := range data {
		data[i] = 0xEE
	}
	vol.Write(0, data, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	tb.Eng.Run()
	if v := ledgers[1].Version(0); v != 0 {
		t.Fatalf("host 1 should have missed the write, holds v%d", v)
	}
	if v := ledgers[0].Version(0); v != 1 {
		t.Fatalf("host 0 should hold v1, holds v%d", v)
	}

	// Kill host 0 (the fresh replica). A read now has only the stale
	// replica to ask; it answers BlkStale and the read fails cleanly
	// rather than returning pre-write data.
	tb.IOHyps[0].Fail()
	tb.IOhostDied(0)
	var readErr error
	vol.Read(0, 1, func(_ []byte, err error) { readErr = err })
	tb.Eng.Run()
	if !errors.Is(readErr, blockdev.ErrNoReplica) {
		t.Fatalf("stale-only read: err = %v, want ErrNoReplica", readErr)
	}
	if n := vol.Counters.Get("stale_reads"); n != 1 {
		t.Fatalf("stale_reads = %d, want 1", n)
	}

	// A newer sub-extent write must NOT un-fence the gapped survivor — it
	// missed v1, and accepting v2 would let v1's sectors read back stale
	// under a lifted fence. The replica gap-nacks, and with the extent's
	// only fresh copy dead there is nothing to heal from: the write fails
	// cleanly and the heal is recorded as stuck.
	var gapErr error
	vol.Write(0, data, func(err error) { gapErr = err })
	tb.Eng.Run()
	if !errors.Is(gapErr, blockdev.ErrQuorumLost) {
		t.Fatalf("sub-extent write to gapped replica: err = %v, want ErrQuorumLost", gapErr)
	}
	if n := vol.Counters.Get("gap_nacks"); n != 1 {
		t.Fatalf("gap_nacks = %d, want 1", n)
	}
	if n := vol.Counters.Get("heal_stuck"); n == 0 {
		t.Fatal("heal_stuck = 0, want > 0 (no live source for the heal)")
	}
	if v := ledgers[1].Version(0); v != 0 {
		t.Fatalf("gapped write advanced the survivor to v%d, want v0", v)
	}

	// A full-extent overwrite replaces every byte of the extent, so it may
	// jump the fence: it re-silvers the survivor and reads succeed again.
	full := make([]byte, int(vol.Spec().ExtentSectors)*tb.P.SectorSize)
	for i := range full {
		full[i] = 0xEE
	}
	vol.Write(0, full, func(err error) {
		if err != nil {
			t.Errorf("full-extent overwrite: %v", err)
		}
	})
	tb.Eng.Run()
	ok := false
	vol.Read(0, 1, func(got []byte, err error) {
		if err != nil {
			t.Fatalf("post-overwrite read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("post-overwrite read returned wrong payload")
		}
		ok = true
	})
	tb.Eng.Run()
	if !ok {
		t.Fatal("post-overwrite read never completed")
	}
}

// TestVolumeGapFenceAndHeal replays the reviewer's linearizability scenario:
// under W=1 a replica misses a committed write, a later write to a DIFFERENT
// sector range of the same extent must not quietly advance its fence past the
// gap. Instead the replica gap-nacks, the heal engine re-silvers it with a
// full-extent copy from the fresh replica, and after the fresh replica dies
// the healed copy serves the missed write's data — never stale bytes.
func TestVolumeGapFenceAndHeal(t *testing.T) {
	tb := buildVolTestbed(3, 2, 1)
	vol := tb.Volumes[0]
	devs := tb.VolReplicaDevices[0]
	ledgers := replicaLedgers(tb, 0)
	sectorBytes := tb.P.SectorSize

	// Write A (v1, sector 0): host 1's device fails it, host 0 acks —
	// quorum met at W=1, so A is committed while host 1 missed it.
	devs[1].FailNext = true
	aData := make([]byte, sectorBytes)
	for i := range aData {
		aData[i] = 0x11
	}
	vol.Write(0, aData, func(err error) {
		if err != nil {
			t.Errorf("write A: %v", err)
		}
	})
	tb.Eng.Run()
	if v := ledgers[1].Version(0); v != 0 {
		t.Fatalf("host 1 should have missed write A, holds v%d", v)
	}

	// Write B (v2, sector 8 — same extent, disjoint sector range). Host 1
	// must NOT accept it: doing so would fence the extent at v2 with write
	// A's sectors still stale. It gap-nacks, which queues a heal; the heal
	// copies the whole extent from host 0 (which holds A and B) onto host 1.
	bData := make([]byte, sectorBytes)
	for i := range bData {
		bData[i] = 0x22
	}
	vol.Write(8, bData, func(err error) {
		if err != nil {
			t.Errorf("write B: %v", err)
		}
	})
	tb.Eng.Run()
	if n := vol.Counters.Get("gap_nacks"); n == 0 {
		t.Fatal("gap_nacks = 0, want > 0 — the gapped replica accepted a sub-extent write")
	}
	if n := vol.Counters.Get("replica_heals"); n != 1 {
		t.Fatalf("replica_heals = %d, want 1", n)
	}
	if v := ledgers[1].Version(0); v != 2 {
		t.Fatalf("healed replica at v%d, want v2", v)
	}

	// Kill the only replica that saw write A directly. The healed copy is
	// all that remains; it must serve A's data, not the pre-A bytes.
	tb.IOHyps[0].Fail()
	tb.IOhostDied(0)
	tb.Eng.Run()
	readSector := func(sector uint64, want []byte, label string) {
		t.Helper()
		ok := false
		vol.Read(sector, 1, func(got []byte, err error) {
			if err != nil {
				t.Fatalf("%s read: %v", label, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s read returned stale bytes", label)
			}
			ok = true
		})
		tb.Eng.Run()
		if !ok {
			t.Fatalf("%s read never completed", label)
		}
	}
	readSector(0, aData, "write A")
	readSector(8, bData, "write B")
}

// TestVolumeHealRestoresWriteQuorum is the W=R liveness half of gap fencing:
// with WriteQuorum equal to Replicas, one missed write would permanently kill
// the quorum if gapped replicas stayed fenced forever. The heal engine must
// restore the replica so later writes succeed.
func TestVolumeHealRestoresWriteQuorum(t *testing.T) {
	tb := buildVolTestbed(3, 2, 2)
	vol := tb.Volumes[0]
	devs := tb.VolReplicaDevices[0]
	ledgers := replicaLedgers(tb, 0)
	data := make([]byte, tb.P.SectorSize)
	write := func() error {
		var werr error
		vol.Write(0, data, func(err error) { werr = err })
		tb.Eng.Run()
		return werr
	}

	// Write 1: host 1's device fails it — quorum lost at W=2.
	devs[1].FailNext = true
	if err := write(); !errors.Is(err, blockdev.ErrQuorumLost) {
		t.Fatalf("write 1: err = %v, want ErrQuorumLost", err)
	}
	// Write 2: host 0 (at v1) acks, host 1 (at v0) gap-nacks — still a
	// quorum loss, but the nack queues a heal from host 0.
	if err := write(); !errors.Is(err, blockdev.ErrQuorumLost) {
		t.Fatalf("write 2: err = %v, want ErrQuorumLost", err)
	}
	if n := vol.Counters.Get("gap_nacks"); n == 0 {
		t.Fatal("gap_nacks = 0, want > 0")
	}
	if n := vol.Counters.Get("replica_heals"); n != 1 {
		t.Fatalf("replica_heals = %d, want 1", n)
	}
	if v0, v1 := ledgers[0].Version(0), ledgers[1].Version(0); v1 != v0 {
		t.Fatalf("heal left replicas split: host0 v%d, host1 v%d", v0, v1)
	}
	// Write 3: both replicas are contiguous again — the quorum is back.
	if err := write(); err != nil {
		t.Fatalf("write 3 after heal: %v", err)
	}
	ok := false
	vol.Read(0, 1, func(got []byte, err error) {
		if err != nil {
			t.Fatalf("post-heal read: %v", err)
		}
		ok = true
	})
	tb.Eng.Run()
	if !ok {
		t.Fatal("post-heal read never completed")
	}
}

// TestVolumeRebuildAfterCrash crashes one IOhost of a fully written R=2
// volume and checks the rebuild engine restores full replication on the
// survivors, byte-exact.
func TestVolumeRebuildAfterCrash(t *testing.T) {
	tb := buildVolTestbed(3, 2, 1)
	vol := tb.Volumes[0]
	writeAllExtents(t, tb, vol)

	tb.IOHyps[1].Fail()
	tb.IOhostDied(1)
	tb.Eng.Run() // drain the rebuild queue

	if vol.Rebuilding() {
		t.Fatal("rebuild queue did not drain")
	}
	if !vol.FullyReplicated() {
		t.Fatal("volume not fully replicated after rebuild")
	}
	// 32 extents, replica slots (e%3, (e+1)%3): host 1 held 22 cells.
	if n := vol.Counters.Get("rebuild_extents"); n != 22 {
		t.Fatalf("rebuild_extents = %d, want 22", n)
	}
	if vol.RebuildBytes == 0 {
		t.Fatal("RebuildBytes = 0, want > 0")
	}
	// Both survivors must hold every extent: no cell is left on the dead
	// host.
	verifyAllExtents(t, tb, 0)
}

// TestVolumeRebuildRetargetsOntoThirdSurvivor crashes a second IOhost while
// the first crash's rebuild is still in flight: jobs that had picked the
// second victim as their copy target must fail, requeue, and re-target onto
// a third survivor.
func TestVolumeRebuildRetargetsOntoThirdSurvivor(t *testing.T) {
	tb := buildVolTestbed(4, 2, 1)
	vol := tb.Volumes[0]
	writeAllExtents(t, tb, vol)

	// Crash host 2. Under the rotation layout hosts 2 and 0 share no extent
	// (their cell pairs are (1,2)/(2,3) vs (0,1)/(3,0)), so a second crash
	// of host 0 never loses both copies of anything. Every rebuild job for
	// host 2's cells picks host 0 as its copy target first (fewest-cells,
	// lowest-index rule), so those in-flight copies land on a host about to
	// die.
	tb.IOHyps[2].Fail()
	tb.IOhostDied(2)
	// Host 0 dies under the in-flight copies, undetected for 1 ms.
	tb.IOHyps[0].Fail()
	tb.Eng.At(tb.Eng.Now()+sim.Millisecond, func() { tb.IOhostDied(0) })
	tb.Eng.Run()

	if !vol.FullyReplicated() {
		t.Fatalf("volume not fully replicated after double crash (counters: retargets=%d stuck=%d lost=%d)",
			vol.Counters.Get("rebuild_retargets"), vol.Counters.Get("rebuild_stuck"),
			vol.Counters.Get("extents_lost"))
	}
	if n := vol.Counters.Get("rebuild_retargets"); n == 0 {
		t.Fatal("expected at least one re-targeted rebuild job")
	}
	// Only hosts 1 and 3 survive; both must hold every extent.
	verifyAllExtents(t, tb, 0)
}
