package main

// Example pins the demo's stdout: every number it prints is virtual
// time or a simulated counter, so the output is the same on every host.
func Example() {
	main()
	// Output:
	// copying 8 files of 390 KB each
	//
	// in core                cp=   58.42ms   xcp=    1.56ms   speedup 37.4x
	// on disk (cold cache)   cp=     4.63s   xcp=  369.48ms   speedup 12.5x
	//
	// XCP sorts all source blocks into one disk schedule, overlaps
	// allocation with the reads, and binds the cached pages to the new
	// blocks - the CPU never touches the data (Section 7.2).
}
