package main

// Example pins the program's output. Every figure it prints comes from a
// seeded simulation, so a change to the model shows up here as a diff.
func Example() {
	main()
	// Output:
	// == lossy channel: 2% frame loss + 0.5% corruption on the vRIO channels ==
	//   923 writes completed in 30ms; 0 duplicated, 0 never completed (both must be 0)
	//   faults: 37 frames lost, 11 corrupted (all caught by the FCS check)
	//   wire ledger: 1913 offered = 1865 delivered + 37 injected + 11 corrupt-FCS drops
	//   recovery: 48 retransmissions, 0 guest-visible errors
	//
	// == VF carrier flaps mid-migration: vm0 flaps ~every 10ms for 1ms, migrates at t=20ms ==
	//   t=20.000ms migration starts (60ms blackout)
	//   t=80.000ms migration complete; guest resumed on VMhost 1
	//   33 carrier flaps injected; 12 retransmissions carried the writes through
	//   5908 writes completed; 0 duplicated, 0 never completed, 0 errors (all must be 0)
	//
	// == IOhost worker stall trips the heartbeat detector: 5ms stalls vs a 1.5ms deadline ==
	//   t=54.000ms IOhost 1 declared dead (stalled, not crashed — the detector can't tell)
	//   t=54.000ms re-homed vm1 onto IOhost 0
	//   12 stalls injected; 13320 writes completed; 0 duplicated, 0 never completed (must be 0)
	//
	// Same seed, same faults, same bytes: re-run this demo and diff the output.
}
