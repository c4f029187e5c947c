package main

// Example pins the program's output. Every figure it prints comes from a
// seeded simulation, so a change to the model shows up here as a diff.
func Example() {
	main()
	// Output:
	// == Figure 16a: consolidation tradeoff (2 sidecores => 1) ==
	//   elvis (2 sidecores):      4515 Mbps
	//   vrio  (1 sidecore):       4198 Mbps  (-7%)
	//   baseline:                 2780 Mbps  (-38%)
	//
	// == Figure 16b: imbalance with AES-256 interposition (2 => 2) ==
	//   elvis (1 usable sidecore):           805 Mbps
	//   vrio  (2 consolidated):             1597 Mbps  (+98%)
	//
	// Expected shape (paper): -8% for the 2=>1 tradeoff; ~+82% under
	// imbalance, because consolidation lets the loaded host use the
	// whole sidecore budget.
}
