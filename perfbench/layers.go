package main

import (
	"sort"
	"strings"
)

// layerOf maps every xok/internal package to the layer its host time
// is charged to. Each package is its own layer except the experiment
// harness (difftest, workload, parallel, machine and the drivers and
// test kits around them), which groups as "harness".
var layerOf = map[string]string{
	"apps":     "apps",
	"bsdos":    "bsdos",
	"bufpool":  "bufpool",
	"cap":      "cap",
	"cffs":     "cffs",
	"core":     "harness",
	"difftest": "harness",
	"disk":     "disk",
	"dpf":      "dpf",
	"emu":      "emu",
	"exos":     "exos",
	"fault":    "fault",
	"httpd":    "httpd",
	"kernel":   "kernel",
	"lfs":      "lfs",
	"machine":  "harness",
	"mem":      "mem",
	"netsim":   "netsim",
	"ostest":   "harness",
	"parallel": "harness",
	"sim":      "sim",
	"trace":    "trace",
	"udf":      "udf",
	"unix":     "unix",
	"wkpred":   "wkpred",
	"workload": "harness",
	"xio":      "xio",
	"xn":       "xn",
}

// Layers that are not packages.
const (
	// layerHandoff is the kernel's park/resume token handoff: runtime
	// channel and scheduler frames called from kernel code.
	layerHandoff = "kernel.handoff"
	// layerGC and layerSched split samples with no repo frame on the
	// stack: background GC work, and everything else the runtime does
	// between goroutines.
	layerGC    = "runtime.gc"
	layerSched = "runtime.sched"
	// layerBench is the benchmark's own code, including the profiler.
	layerBench = "bench"
)

// layers lists every layer in a fixed order.
func layers() []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range layerOf {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	out = append(out, layerHandoff, layerGC, layerSched, layerBench)
	sort.Strings(out)
	return out
}

// shareMetric names a layer's host-time share: "xn.share",
// "kernel.handoff_share".
func shareMetric(layer string) string {
	if strings.Contains(layer, ".") {
		return layer + "_share"
	}
	return layer + ".share"
}

// repoPackage returns the xok/internal package a function belongs to.
func repoPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "xok/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// Runtime functions that move a goroutine between running and parked:
// channel operations, park/ready, and the scheduler loop they enter.
var handoffPrefixes = []string{
	"chansend", "chanrecv", "closechan", "selectgo", "send", "recv",
	"gopark", "goready", "ready", "park_m", "schedule", "findRunnable",
	"mcall", "wakep", "startm", "stopm", "handoffp", "acquirep",
	"releasep", "resetspinning", "execute", "gogo", "casgstatus",
	"notewakeup", "notesleep", "futex", "lock", "unlock", "runq",
	"stealWork", "gosched", "Gosched",
}

func isHandoffFrame(fn string) bool {
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range handoffPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.GC", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// classify charges one stack (leaf first) to a layer: the innermost
// xok/internal frame's layer, with runtime frames counted against the
// repo code that called them, except that a channel or scheduler call
// made directly by kernel code, and everything under it, is the
// handoff. A stack with no repo frame is the
// benchmark's own when it runs benchmark or profiler code, background
// GC when it holds a GC frame, and scheduler time otherwise.
func classify(frames []string) string {
	for i, fn := range frames {
		pkg, ok := repoPackage(fn)
		if !ok {
			continue
		}
		layer, ok := layerOf[pkg]
		if !ok {
			layer = pkg // a package added after the map; the test catches it
		}
		if layer == "kernel" && i > 0 && isHandoffFrame(frames[i-1]) {
			return layerHandoff
		}
		return layer
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "runtime/pprof.") {
			return layerBench
		}
	}
	for _, fn := range frames {
		if isGCFrame(fn) {
			return layerGC
		}
	}
	return layerSched
}

// attribution is a CPU profile's time per layer.
type attribution struct {
	nanos   map[string]int64
	total   int64
	samples int
}

func attribute(samples []cpuSample) attribution {
	a := attribution{nanos: map[string]int64{}}
	for _, s := range samples {
		a.nanos[classify(s.Frames)] += s.Nanos
		a.total += s.Nanos
		a.samples++
	}
	return a
}

// share is a layer's percentage of the profile's CPU time.
func (a attribution) share(layer string) float64 {
	if a.total == 0 {
		return 0
	}
	return 100 * float64(a.nanos[layer]) / float64(a.total)
}
