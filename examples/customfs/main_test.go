package main

// Example pins the demo's stdout: every number it prints is virtual
// time or a simulated counter, so the output is the same on every host.
func Example() {
	main()
	// Output:
	// logfs created: root block 5000, templates data=4 index=5
	// appended 3 records
	// lying allocation rejected: xn: modification changes ownership incorrectly
	// write of index with uninitialized record rejected: xn: write would persist pointer to uninitialized data
	// ordered writes completed; log is on disk
	//
	// --- simulated crash; remounting from the disk image ---
	//
	// recovered logfs: 4 extents in the index
	//   extent 0 @5001: "log record #0"
	//   extent 1 @5002: "log record #1"
	//   extent 2 @5003: "log record #2"
	//   extent 3 @6100: "log record #3"
	// free blocks after GC: 1048545
}
