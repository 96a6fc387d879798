package main

// Example pins the demo's stdout: every number it prints is virtual
// time or a simulated counter, so the output is the same on every host.
func Example() {
	main()
	// Output:
	// booted Xok/ExOS: 16384 pages of memory, 1048576 disk blocks
	//
	// running as pid 1, uid 501
	// wc /proj/abstract.txt: 14 words
	// grep control /proj: 1 match(es)
	// ls /proj: abstract.txt(114B) copy.txt(114B)
	// fork+exec+wait took 8.22ms (ExOS fork is ~6ms, Section 6.2)
	//
	// virtual time elapsed: 31.46ms
	// system calls: 76, library calls: 24, disk reads: 1, disk writes: 5
}
