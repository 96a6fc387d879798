// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document on stdout, so benchmark baselines can be
// committed (BENCH_sim.json) and diffed in review instead of eyeballed
// in scrollback.
//
//	go test -bench=. -benchmem ./... | go run ./cmd/benchjson > BENCH_sim.json
//
// Parsed per benchmark line: the run count plus every "value unit"
// metric pair — the standard ns/op, B/op, allocs/op and any custom
// b.ReportMetric units (vsec/system, usec/call, ...). Header lines
// (goos/goarch/cpu) become the "host" block, together with the host's
// CPU count (num_cpu) and the GOMAXPROCS the benchmarks ran at
// (gomaxprocs, read from their -N name suffix). Everything else passes
// through to stderr untouched so failures stay visible in the pipe.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name has the -cpu suffix stripped: BenchmarkFoo-4 -> BenchmarkFoo.
	Name string `json:"name"`
	// Runs is b.N — how many iterations the timing averages over.
	Runs int64 `json:"runs"`
	// Metrics maps unit -> value, e.g. {"ns/op": 57.3, "allocs/op": 0}.
	Metrics map[string]float64 `json:"metrics"`

	// procs is the GOMAXPROCS the line ran at: the stripped -N suffix,
	// or 1 when go test printed none.
	procs int
}

// Speedup is one derived serial-vs-parallel comparison: a benchmark
// pair named <Base>Serial / <Base>Parallel<k>.
type Speedup struct {
	Base    string `json:"base"`
	Workers int    `json:"workers"`
	// Speedup is serial ns/op over parallel ns/op (>1 = parallel wins).
	Speedup float64 `json:"speedup"`
	// SerialNsOp/ParallelNsOp restate the inputs for review diffs.
	SerialNsOp   float64 `json:"serial_ns_op"`
	ParallelNsOp float64 `json:"parallel_ns_op"`
	// AllocDelta* are parallel minus serial — how much extra (or saved)
	// heap the fan-out costs per campaign. Present only when both sides
	// ran with -benchmem.
	AllocDeltaBytes   *float64 `json:"alloc_delta_bytes,omitempty"`
	AllocDeltaObjects *float64 `json:"alloc_delta_objects,omitempty"`
	// IntraRun is false for campaigns whose legs cannot fan out (e.g. a
	// single cluster cell sweep: Parallel only distributes whole cells,
	// so the worker count barely moves the number). It flags rows that
	// must not be read as scaling evidence.
	IntraRun *bool `json:"intra_run,omitempty"`
	// Regression marks a speedup below 1.0 — the "fast" side lost. On a
	// multi-core host `make perf-sanity` refuses to accept these rows;
	// on a single-CPU host parallel rows hovering just under 1.0 are
	// measurement noise (see perfsanity_test.go).
	Regression bool `json:"regression,omitempty"`
}

// SnapshotSpeedup is one derived boot-vs-fork comparison: a benchmark
// pair named <Base><Mode> / <Base>Snapshot<Mode> for the same Mode
// (Serial or Parallel<k>) — the same campaign re-booting machines per
// run versus forking them from snapshots.
type SnapshotSpeedup struct {
	Base string `json:"base"`
	Mode string `json:"mode"`
	// Speedup is boot ns/op over fork ns/op (>1 = forking wins).
	Speedup float64 `json:"speedup"`
	// BootNsOp/ForkNsOp restate the inputs for review diffs.
	BootNsOp float64 `json:"boot_ns_op"`
	ForkNsOp float64 `json:"fork_ns_op"`
	// Regression marks a speedup below 1.0 (see Speedup.Regression).
	Regression bool `json:"regression,omitempty"`
}

// WheelSpeedup is one derived heap-vs-timer-wheel comparison, from a
// benchmark pair named <Base>Heap<Case> / <Base>Wheel<Case> (the
// engine's far-timer microbenchmarks). Speedup > 1 means the wheel
// wins; these runs are single-threaded and deterministic, so a
// regression here is real on any host.
type WheelSpeedup struct {
	Base string `json:"base"`
	// Case is the pending-count suffix of the pair ("65536", "1M").
	Case string `json:"case,omitempty"`
	// Speedup is heap ns/op over wheel ns/op (>1 = wheel wins).
	Speedup float64 `json:"speedup"`
	// HeapNsOp/WheelNsOp restate the inputs for review diffs.
	HeapNsOp  float64 `json:"heap_ns_op"`
	WheelNsOp float64 `json:"wheel_ns_op"`
	// Regression marks a speedup below 1.0 (see Speedup.Regression).
	Regression bool `json:"regression,omitempty"`
}

// Report is the whole document.
type Report struct {
	// Host pins the hardware/toolchain the numbers were taken on.
	Host map[string]string `json:"host"`
	// Benchmarks appear in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
	// ParallelSpeedups is derived from <Base>Serial / <Base>Parallel<k>
	// benchmark pairs, in the serial side's input order.
	ParallelSpeedups []Speedup `json:"parallel_speedups,omitempty"`
	// SnapshotSpeedups is derived from <Base><Mode> /
	// <Base>Snapshot<Mode> benchmark pairs, in the snapshot side's
	// input order.
	SnapshotSpeedups []SnapshotSpeedup `json:"snapshot_speedups,omitempty"`
	// WheelSpeedups is derived from <Base>Heap<Case> / <Base>Wheel<Case>
	// benchmark pairs, in the heap side's input order.
	WheelSpeedups []WheelSpeedup `json:"wheel_speedups,omitempty"`
}

func main() {
	expect := flag.String("expect", "", "comma-separated benchmark names that must be present; any missing or unparsable one fails the run")
	flag.Parse()

	rep := Report{Host: map[string]string{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseBench(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
			continue
		}
		if k, v, ok := parseHeader(line); ok {
			rep.Host[k] = v
			continue
		}
		// PASS/FAIL/ok lines and test noise: keep them on stderr so a
		// failing pipeline is still diagnosable.
		fmt.Fprintln(os.Stderr, line)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if missing := missingBenchmarks(*expect, rep.Benchmarks); len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: expected benchmarks missing or unparsable: %s\n", strings.Join(missing, ", "))
		os.Exit(1)
	}
	rep.Host["num_cpu"] = strconv.Itoa(runtime.NumCPU())
	rep.Host["gomaxprocs"] = gomaxprocs(rep.Benchmarks)
	rep.ParallelSpeedups = deriveSpeedups(rep.Benchmarks)
	rep.SnapshotSpeedups = deriveSnapshotSpeedups(rep.Benchmarks)
	rep.WheelSpeedups = deriveWheelSpeedups(rep.Benchmarks)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
}

// missingBenchmarks returns the names from the comma-separated expect
// list that did not produce a parsed result line. A benchmark that
// paniced, failed, or was renamed shows up here instead of silently
// vanishing from the committed baseline.
func missingBenchmarks(expect string, got []Benchmark) []string {
	if expect == "" {
		return nil
	}
	have := make(map[string]bool, len(got))
	for _, b := range got {
		have[b.Name] = true
	}
	var missing []string
	for _, name := range strings.Split(expect, ",") {
		name = strings.TrimSpace(name)
		if name != "" && !have[name] {
			missing = append(missing, name)
		}
	}
	return missing
}

// gomaxprocs reports the GOMAXPROCS values the benchmarks ran at,
// comma-separated in first-seen order (normally just one).
func gomaxprocs(benches []Benchmark) string {
	var vals []string
	seen := map[int]bool{}
	for _, b := range benches {
		if !seen[b.procs] {
			seen[b.procs] = true
			vals = append(vals, strconv.Itoa(b.procs))
		}
	}
	return strings.Join(vals, ",")
}

// noIntraRunParallelism names the campaign bases whose Parallel legs
// cannot fan out within a run — the worker pool only distributes whole
// independent sub-runs, and this campaign has too few to matter (the
// cluster sweep is three cells, dominated by the largest). Their
// speedup rows are kept for the record but flagged intra_run: false so
// nobody reads a ~1.0x as a regression or a ~Nx as scaling.
var noIntraRunParallelism = map[string]bool{
	"BenchmarkCluster": true,
}

// deriveSpeedups pairs <Base>Serial with every <Base>Parallel<k> and
// computes the speedup ratio plus the per-campaign allocation deltas.
func deriveSpeedups(benches []Benchmark) []Speedup {
	var out []Speedup
	for _, s := range benches {
		base, ok := strings.CutSuffix(s.Name, "Serial")
		if !ok {
			continue
		}
		for _, p := range benches {
			rest, ok := strings.CutPrefix(p.Name, base+"Parallel")
			if !ok {
				continue
			}
			workers, err := strconv.Atoi(rest)
			if err != nil {
				continue
			}
			sNs, pNs := s.Metrics["ns/op"], p.Metrics["ns/op"]
			if sNs == 0 || pNs == 0 {
				continue
			}
			sp := Speedup{
				Base:         base,
				Workers:      workers,
				Speedup:      sNs / pNs,
				SerialNsOp:   sNs,
				ParallelNsOp: pNs,
			}
			sB, okSB := s.Metrics["B/op"]
			pB, okPB := p.Metrics["B/op"]
			if okSB && okPB {
				d := pB - sB
				sp.AllocDeltaBytes = &d
			}
			sA, okSA := s.Metrics["allocs/op"]
			pA, okPA := p.Metrics["allocs/op"]
			if okSA && okPA {
				d := pA - sA
				sp.AllocDeltaObjects = &d
			}
			if noIntraRunParallelism[base] {
				f := false
				sp.IntraRun = &f
			}
			sp.Regression = sp.Speedup < 1.0
			out = append(out, sp)
		}
	}
	return out
}

// deriveWheelSpeedups pairs the heap baseline <Base>Heap<Case> with
// the timer-wheel side <Base>Wheel<Case> (engine far-timer
// microbenchmarks at a fixed pending count).
func deriveWheelSpeedups(benches []Benchmark) []WheelSpeedup {
	byName := make(map[string]Benchmark, len(benches))
	for _, b := range benches {
		byName[b.Name] = b
	}
	var out []WheelSpeedup
	for _, h := range benches {
		i := strings.Index(h.Name, "Heap")
		if i < 0 {
			continue
		}
		base, c := h.Name[:i], h.Name[i+len("Heap"):]
		wheel, found := byName[base+"Wheel"+c]
		if !found {
			continue
		}
		hNs, wNs := h.Metrics["ns/op"], wheel.Metrics["ns/op"]
		if hNs == 0 || wNs == 0 {
			continue
		}
		out = append(out, WheelSpeedup{
			Base: base, Case: c,
			Speedup:    hNs / wNs,
			HeapNsOp:   hNs,
			WheelNsOp:  wNs,
			Regression: hNs/wNs < 1.0,
		})
	}
	return out
}

// deriveSnapshotSpeedups pairs <Base>Snapshot<Mode> with <Base><Mode>
// for Mode = Serial or Parallel<k>, comparing the fork fast path
// against the boot-per-run baseline at the same worker count.
func deriveSnapshotSpeedups(benches []Benchmark) []SnapshotSpeedup {
	byName := make(map[string]Benchmark, len(benches))
	for _, b := range benches {
		byName[b.Name] = b
	}
	validMode := func(mode string) bool {
		if mode == "Serial" {
			return true
		}
		rest, ok := strings.CutPrefix(mode, "Parallel")
		if !ok {
			return false
		}
		_, err := strconv.Atoi(rest)
		return err == nil
	}
	var out []SnapshotSpeedup
	for _, f := range benches {
		i := strings.LastIndex(f.Name, "Snapshot")
		if i < 0 {
			continue
		}
		base, mode := f.Name[:i], f.Name[i+len("Snapshot"):]
		if !validMode(mode) {
			continue
		}
		boot, ok := byName[base+mode]
		if !ok {
			continue
		}
		bNs, fNs := boot.Metrics["ns/op"], f.Metrics["ns/op"]
		if bNs == 0 || fNs == 0 {
			continue
		}
		out = append(out, SnapshotSpeedup{
			Base:       base,
			Mode:       mode,
			Speedup:    bNs / fNs,
			BootNsOp:   bNs,
			ForkNsOp:   fNs,
			Regression: bNs/fNs < 1.0,
		})
	}
	return out
}

// parseHeader matches the `go test -bench` preamble: "goos: linux",
// "goarch: amd64", "pkg: xok", "cpu: ...". pkg is skipped — one
// report spans several packages.
func parseHeader(line string) (key, val string, ok bool) {
	for _, k := range []string{"goos", "goarch", "cpu"} {
		if rest, found := strings.CutPrefix(line, k+": "); found {
			return k, strings.TrimSpace(rest), true
		}
	}
	return "", "", false
}

// parseBench matches a result line:
//
//	BenchmarkEngineStepAfter16-4   20000000   57.3 ns/op   0 B/op   0 allocs/op
//
// i.e. name, b.N, then (value, unit) pairs.
func parseBench(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Runs: runs, Metrics: map[string]float64{}, procs: 1}
	if i := strings.LastIndexByte(b.Name, '-'); i > 0 {
		if n, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.procs = b.Name[:i], n
		}
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}
