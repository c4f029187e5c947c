package main

// Example pins the program's output. Every figure it prints comes from a
// seeded simulation, so a change to the model shows up here as a diff.
func Example() {
	main()
	// Output:
	// == metrics-driven rebalancing: all guests start on IOhost 0 of 3 ==
	//   t[ms]   busy[ms/IOhost]          placement
	//      20    13.18   0.19   2.01   [5 0 1]
	//      40    22.72   1.06   4.64   [3 2 1]
	//      60    29.20   6.25   7.43   [2 3 1]
	//      80    34.27  12.02  12.28   [2 2 2]
	//     100    39.63  17.30  17.42   [2 2 2]
	//   12956 transactions; 5 rebalance moves:
	//     t=5.000ms  rebalance vm3: IOhost 0 -> 2
	//     t=20.000ms rebalance vm5: IOhost 0 -> 1
	//     t=35.000ms rebalance vm1: IOhost 0 -> 1
	//     t=50.000ms rebalance vm0: IOhost 0 -> 1
	//     t=65.000ms rebalance vm1: IOhost 1 -> 2
	//
	// == heartbeat failure detection: IOhost 2 of 2 crashes at t=40ms ==
	//   t=40.000ms  3670 transactions; IOhost 1 fails (heartbeats every 500.00µs, 3 misses => dead)
	//   t=41.000ms detected IOhost 1 dead (1.000ms after the crash)
	//   t=41.000ms re-homed vm1 onto IOhost 0
	//   t=41.000ms re-homed vm3 onto IOhost 0
	//   t=120.000ms  9585 transactions (5915 served after the crash); survivors alive: 1/2
	//
	// Paper §4.6 sketches failover onto a fallback IOhost; internal/rack
	// turns it into a control plane: bounded-window detection, automatic
	// re-homing, and gauge-driven rebalancing across the whole rack.
}
