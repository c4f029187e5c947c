package experiments

import (
	"testing"

	"vrio/internal/fault"
)

// TestFaultToleranceDeterministicQuick is the tier-1 determinism guard for
// the fault subsystem: the whole experiment — fault draws included — must
// render byte-identically across runs with the same seeds.
func TestFaultToleranceDeterministicQuick(t *testing.T) {
	a := Format(Get("faulttolerance")(true))
	b := Format(Get("faulttolerance")(true))
	if a != b {
		t.Fatalf("faulttolerance is not deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// checkExactlyOnce fails unless the cell issued and completed traffic with
// no duplicated and no never-completed request.
func checkExactlyOnce(t *testing.T, o Metrics) {
	t.Helper()
	if o["issued"] == 0 || o["completed"] == 0 {
		t.Fatal("cell produced no block traffic")
	}
	if o["dup"] != 0 {
		t.Errorf("%v duplicated completions, want 0", o["dup"])
	}
	if o["never-completed"] != 0 {
		t.Errorf("%v requests never completed after the drain, want 0", o["never-completed"])
	}
}

// TestFaultToleranceExactlyOnce: under 2% channel loss every block request
// completes exactly once — recovery is retransmission, never duplication.
func TestFaultToleranceExactlyOnce(t *testing.T) {
	o := runFault(true, sweepCase(fault.Lossy(0.02)))
	checkExactlyOnce(t, o)
	if o["frames lost"] == 0 {
		t.Fatal("2% loss profile injected no frame loss — the sweep is vacuous")
	}
	if o["retrans"] == 0 {
		t.Error("frames were lost but nothing retransmitted")
	}
}

// TestFaultToleranceGracefulDegradation: more loss means less throughput,
// not a cliff and not a hang.
func TestFaultToleranceGracefulDegradation(t *testing.T) {
	clean := runFault(true, sweepCase(nil))
	lossy := runFault(true, sweepCase(fault.Lossy(0.05)))
	if clean["frames lost"] != 0 {
		t.Errorf("nil profile injected %v losses", clean["frames lost"])
	}
	if lossy["ops/s"] <= 0 {
		t.Fatal("5% loss stalled the workload entirely")
	}
	if lossy["ops/s"] >= clean["ops/s"] {
		t.Errorf("5%% loss did not reduce throughput: %.0f >= %.0f ops/s", lossy["ops/s"], clean["ops/s"])
	}
}

// TestFaultToleranceMQExactlyOnce: the exactly-once ledger must hold at
// QD=4/NQ=2 under 2% channel loss with every sidecore stalled twice
// mid-run, and the per-queue in-flight tables must drain completely.
func TestFaultToleranceMQExactlyOnce(t *testing.T) {
	o := runFault(true, ftCaseFor("2% QD4xNQ2 + stalls"))
	checkExactlyOnce(t, o)
	if o["frames lost"] == 0 {
		t.Fatal("2% loss profile injected no frame loss — the cell is vacuous")
	}
	if o["retrans"] == 0 {
		t.Error("frames were lost but nothing retransmitted")
	}
	if o["stalls"] < 2 {
		t.Errorf("expected 2 injected worker stalls, saw %v", o["stalls"])
	}
	if o["tables left"] != 0 {
		t.Errorf("%v entries left in per-queue in-flight tables after drain, want 0", o["tables left"])
	}
}

// TestFaultToleranceMQCrash: crash/re-home at QD=4/NQ=2 — stranded
// multi-queue requests ride retransmission onto the survivor, exactly once,
// and both IOhosts' queue tables balance to zero.
func TestFaultToleranceMQCrash(t *testing.T) {
	o := runFault(true, ftCaseFor("1% QD4xNQ2 + crash"))
	checkExactlyOnce(t, o)
	if o["dev errors"] != 0 {
		t.Errorf("%v device errors: stranded requests should retransmit onto the survivor, not fail", o["dev errors"])
	}
	if o["tables left"] != 0 {
		t.Errorf("%v entries left in per-queue in-flight tables after drain, want 0", o["tables left"])
	}
}

// TestFaultToleranceCrashOverLossyChannel: the rack controller must still
// detect a dead IOhost and re-home its guests when every heartbeat rides a
// 1%-lossy fabric, and the exactly-once ledger must survive the migration.
func TestFaultToleranceCrashOverLossyChannel(t *testing.T) {
	o := runFault(true, ftCaseFor("1% + IOhost crash"))
	if o["detect"] < 0 {
		t.Fatal("controller never detected the crashed IOhost")
	}
	if o["rehomes"] == 0 {
		t.Error("no guests were re-homed off the dead IOhost")
	}
	checkExactlyOnce(t, o)
	if o["dev errors"] != 0 {
		t.Errorf("%v device errors: stranded requests should retransmit onto the survivor, not fail", o["dev errors"])
	}
}

// TestFaultToleranceVolCrash: quorum writes on a striped R=2 volume over a
// 1%-lossy fabric with a replica IOhost crashing mid-run. Exactly-once must
// hold end to end, and the rebuild engine must restore full replication over
// the same lossy fabric. Device errors are allowed — they are writes the
// version fence refused whole (superseded by a newer concurrent version, or
// gap-nacked by a replica that missed an earlier one), never partial or
// duplicated applications.
func TestFaultToleranceVolCrash(t *testing.T) {
	o := runFault(true, ftCaseFor("1% vol R=2 + crash"))
	checkExactlyOnce(t, o)
	if o["frames lost"] == 0 {
		t.Fatal("1% loss profile injected no frame loss — the cell is vacuous")
	}
	if o["rebuilt"] == 0 {
		t.Error("crash cost no extent replicas; the cell exercises nothing")
	}
	if o["healthy"] != 1 {
		t.Error("rebuild did not restore full replication over the lossy fabric")
	}
	if o["dev errors"] != o["quorum losses"] {
		t.Errorf("%v device errors but %v quorum losses: every failed write must be a clean quorum-loss error", o["dev errors"], o["quorum losses"])
	}
}
