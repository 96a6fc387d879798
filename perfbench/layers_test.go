package main

import (
	"bytes"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// Every xok/internal package must be charged to a layer, and the map
// must not name packages that no longer exist.
func TestEveryInternalPackageMapped(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dirs[e.Name()] = true
		if _, ok := layerOf[e.Name()]; !ok {
			t.Errorf("xok/internal/%s has no layer in layerOf", e.Name())
		}
	}
	for pkg := range layerOf {
		if !dirs[pkg] {
			t.Errorf("layerOf maps %q, which is not a package under internal/", pkg)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"kernel resume wakes the env", []string{
			"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm",
			"runtime.wakep", "runtime.ready", "runtime.goready.func1", "runtime.systemstack",
			"runtime.goready", "runtime.send", "runtime.chansend", "runtime.chansend1",
			"xok/internal/kernel.(*Kernel).resume", "xok/internal/kernel.(*Kernel).runEnv",
			"xok/internal/sim.(*Engine).Run",
		}, layerHandoff},
		{"env parks on its resume channel", []string{
			"runtime.gopark", "runtime.chanrecv", "runtime.chanrecv1",
			"xok/internal/kernel.(*Env).park", "xok/internal/kernel.(*Env).Use",
		}, layerHandoff},
		{"allocation inside kernel code stays kernel", []string{
			"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
			"xok/internal/kernel.(*Kernel).Spawn",
		}, "kernel"},
		{"channel send from sim is sim", []string{
			"runtime.chansend", "runtime.chansend1", "xok/internal/sim.(*Engine).Run",
		}, "sim"},
		{"stdlib under xn is xn", []string{
			"sort.insertionSortCmpFunc", "slices.SortFunc",
			"xok/internal/xn.(*XN).DirtyBlocks", "xok/internal/xn.(*XN).maybeFlushBehind",
			"xok/internal/kernel.(*Env).Use",
		}, "xn"},
		{"generic harness frame", []string{
			"xok/internal/parallel.Stream[go.shape.struct { xok/internal/difftest.div *Divergence }]",
		}, "harness"},
		{"background mark worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker",
		}, layerGC},
		{"idle scheduler", []string{
			"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall",
		}, layerSched},
		{"profiler goroutine", []string{
			"runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter",
		}, layerBench},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestLayersHaveDistinctShareMetrics(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range layers() {
		m := shareMetric(l)
		if seen[m] {
			t.Errorf("share metric %q appears twice", m)
		}
		seen[m] = true
	}
	for _, m := range []string{"xn.share", "kernel.handoff_share", "runtime.gc_share", "runtime.sched_share", "harness.share"} {
		if !seen[m] {
			t.Errorf("missing share metric %q", m)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// A real CPU profile decodes into stacks that name the profiled code.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.Nanos
		for _, fn := range s.Frames {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.Nanos
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Fatalf("decoded %d samples, %d ns total, %d ns in spin; want most time in spin", len(samples), total, inSpin)
	}
}
