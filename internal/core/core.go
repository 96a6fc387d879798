// Package core is the top-level facade of the exokernel reproduction:
// one entry point to boot a simulated Xok/ExOS machine and, through
// Bench, the one driver of every experiment in the paper's evaluation
// — Figure 2 / Table 1 (the I/O-intensive workload), the Modified
// Andrew Benchmark, the Section 6.3 cost-of-protection measurement,
// Table 2 (pipe latencies), the Section 7.1 emulator and 7.2 XCP
// results, Figure 3 (HTTP throughput), and Figures 4 and 5 (global
// performance).
//
// The examples, the root benchmarks and cmd/xok-bench are built on
// this package; each experiment returns plain result structs so
// callers can format or assert on them.
package core

import (
	"xok/internal/exos"
	"xok/internal/sim"
)

// BootXok boots a Xok/ExOS machine with protection on (the paper's
// measured configuration).
func BootXok() *exos.System {
	return exos.Boot(exos.Config{Protect: true})
}

// Table2Row is one pipe implementation's latencies.
type Table2Row struct {
	Impl   string
	Lat1B  sim.Time
	Lat8KB sim.Time
}

// GlobalCell is one number/number cell of Figures 4 and 5.
type GlobalCell struct {
	TotalJobs int
	MaxConc   int
}

// Figure45Cells are the paper's five cells: 7/1 .. 35/5.
func Figure45Cells() []GlobalCell {
	return []GlobalCell{{7, 1}, {14, 2}, {21, 3}, {28, 4}, {35, 5}}
}
