package main

// Example pins the program's output. Every figure it prints comes from a
// seeded simulation, so a change to the model shows up here as a diff.
func Example() {
	main()
	// Output:
	// == interposed encryption on a remote block device ==
	//   guest read matches written plaintext: true
	//   IOhost stores ciphertext at rest:     true
	//
	// == Filebench on ramdisk: local (Elvis) vs remote (vRIO) ==
	//   mix         elvis ops/s    vrio ops/s    elvis involuntary CS
	//   1 reader          58960         26280                       0
	//   1 pair            48680         34040                    1044
	//   2 pairs           48960         38440                    1083
	//
	// Expected shape (paper Fig. 14): Elvis wins the single reader (the
	// remote hop costs latency); as concurrency grows, Elvis's low-latency
	// completions cause involuntary context switches and vRIO catches up.
}
