package main

// Example pins the program's output. Every figure it prints comes from a
// seeded simulation, so a change to the model shows up here as a diff.
func Example() {
	main()
	// Output:
	// == live migration: VMhost 0 -> VMhost 1, traffic running ==
	//   t=40ms     919 transactions done; migrating (blackout 60.000ms)
	//   t=100.000ms  resumed on VMhost 1 (same F address, same remote disk)
	//   t=200ms   3212 transactions done (2293 after the move)
	//
	// == IOhost failure: IOhost 1 is the idle fallback of a two-IOhost rack ==
	//   t=40ms    3632 transactions; IOhost 0 crashes
	//   t=41.000ms  heartbeat declares IOhost 0 dead; 4 guests re-homed
	//   t=200ms  15463 transactions (11831 served after the crash)
	//   IOhost 1 processed 11830 messages; gratuitous announcements: 10
	//
	// Paper §4.6 sketches both mechanisms (and the cabling cost of the
	// fallback); this repository implements and measures them.
}
