package main

// Example pins the demo's stdout: every number it prints is virtual
// time or a simulated counter, so the output is the same on every host.
func Example() {
	main()
	// Output:
	// HTTP document throughput (24 closed-loop clients, 300ms window)
	//
	// server         doc size   requests/s       MB/s CPU idle
	// NCSA/BSD             0B          247        0.0       0%
	// Socket/BSD           0B          897        0.0       0%
	// Socket/Xok           0B         1600        0.0       0%
	// Cheetah              0B         7123        0.0       0%
	//
	// NCSA/BSD          1024B          243        0.2       1%
	// Socket/BSD        1024B          880        0.9       0%
	// Socket/Xok        1024B         1520        1.6       0%
	// Cheetah           1024B         7120        7.3       0%
	//
	// NCSA/BSD        102400B           63        6.5       0%
	// Socket/BSD      102400B           80        8.2       0%
	// Socket/Xok      102400B          100       10.2       0%
	// Cheetah         102400B          330       33.8      41%
	//
	// Cheetah transmits straight from the file cache with precomputed
	// checksums and merged control packets; at 100KB it saturates the
	// network while the socket servers saturate the CPU (Section 7.3).
}
