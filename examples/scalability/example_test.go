package main

// Example pins the program's output. Every figure it prints comes from a
// seeded simulation, so a change to the model shows up here as a diff.
func Example() {
	main()
	// Output:
	// == one IOhost serving four VMhosts (Netperf RR latency, µs) ==
	//    VMs      1 sc      2 sc      4 sc
	//      4      43.7      43.4      43.5
	//     12      66.3      44.0      43.5
	//     20     109.6      55.2      43.7
	//     28     153.9      77.0      44.9
	//
	// Expected shape (Fig. 13a): latency climbs once a sidecore
	// saturates; adding sidecores flattens the curve. Only the VM count
	// matters, not which VMhost the VMs live on.
	//
	// == heterogeneous IOclients: same datapath, same service ==
	//   KVM guests  mean RTT 44.4µs over 676 transactions
	//   bare metal  mean RTT 45.8µs over 656 transactions
	//
	// The I/O hypervisor never inspects the client kind: bare-metal
	// OSes installing the vRIO driver get interposed I/O too (§4.6).
}
