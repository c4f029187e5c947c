package main

// Example pins the program's output. Every figure it prints comes from a
// seeded simulation, so a change to the model shows up here as a diff.
func Example() {
	main()
	// Output:
	// vRIO quickstart: 4 VMs on one VMhost, IOhost with 1 sidecore
	//
	// model         RR mean [µs]   RR p99 [µs]   stream [Gbps]
	// optimum               31.7          47.1            3.57
	// elvis                 40.5          65.5            3.50
	// vrio                  43.9          67.6            3.31
	// baseline              68.0          94.2            2.32
	//
	// Expected shape (paper §5): optimum fastest; vRIO trades ~12µs of
	// latency for remote interposition; Elvis sits between them at low VM
	// counts; the baseline trails everywhere.
	//
	// Events per request-response (Table 3), measured on VM 0:
	//   optimum    exits=0.0 guest_irqs=2.2 injections=0.0 host_irqs=0.0
	//   vrio       exits=0.0 guest_irqs=2.2 injections=0.0 host_irqs=0.0
	//   elvis      exits=0.0 guest_irqs=2.2 injections=0.0 host_irqs=2.2
	//   baseline   exits=3.3 guest_irqs=2.2 injections=2.2 host_irqs=2.2
}
