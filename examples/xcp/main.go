// XCP: the "zero-touch" file copy of Section 7.2. Copies a batch of
// files twice — once with the ordinary UNIX cp through the ExOS file
// descriptor layer, once with XCP through the raw XN/disk interfaces —
// and reports both times, warm and cold. The numbers come from
// core.Bench.XCP, the same driver `xok-bench -run xcp` prints from.
package main

import (
	"fmt"
	"log"

	"xok/internal/core"
)

func main() {
	fmt.Printf("copying %d files of %d KB each\n\n", core.XCPFiles, core.XCPFileSize/1024)
	rows, err := (&core.Bench{}).XCP()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		label := "in core"
		if r.Cold {
			label = "on disk (cold cache)"
		}
		fmt.Printf("%-22s cp=%10v   xcp=%10v   speedup %.1fx\n", label, r.Cp, r.XCP, r.Speedup())
	}
	fmt.Println("\nXCP sorts all source blocks into one disk schedule, overlaps")
	fmt.Println("allocation with the reads, and binds the cached pages to the new")
	fmt.Println("blocks - the CPU never touches the data (Section 7.2).")
}
