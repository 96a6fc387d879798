// Command perfbench is the repository benchmark. It runs one named
// workload through the simulator's public entry points (machine.New,
// workload.GlobalPerf, workload.Cluster, difftest.Fuzz,
// workload.CrashEnumerate) for a fixed host-time budget, checks every
// operation's simulated outcome, and prints the metrics that
// BENCHMARK.json names as one JSON object on the last line of standard
// output. README.md describes the workloads and the metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xok/internal/machine"
	"xok/internal/sim"
)

// expectedJSON holds the recorded golden outcome of the first
// operations of a few seeds per workload: workload -> seed -> lines.
//
//go:embed expected.json
var expectedJSON []byte

const (
	// setupReps is how many times a run repeats its setup to report a
	// median setup time.
	setupReps = 25
	// heapCeilingMB stops a run whose heap passes it, as failed: ten
	// times the largest workload's peak, and far below the host's
	// memory, so an overload cell that tips past its memory cliff
	// fails in seconds instead of being OOM-killed.
	heapCeilingMB = 1024
	// expectedPath is where -record writes, relative to the
	// repository root.
	expectedPath = "perfbench/expected.json"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "workload to run: multitask, harness, cluster or overload")
		seed      = flag.Uint64("seed", 1, "run seed; every operation's input derives from it")
		seconds   = flag.Float64("seconds", 10, "host seconds of operations to measure")
		traceFlag = flag.Int("trace", 0, "1 = traced run: untraced and traced halves, CPU profile, spans, per-layer metrics")
		record    = flag.Int("record", 0, "record the outcomes of the first N operations at -seed into "+expectedPath+", then exit")
		outDir    = flag.String("out", ".bench_build/perfbench", "directory for the traced run's CPU profile and spans")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (multitask, harness, cluster, overload), -trace 0|1 and -seconds > 0\n")
		flag.Usage()
		return 2
	}
	var golden map[string]map[string][]string
	if err := json.Unmarshal(expectedJSON, &golden); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: expected.json: %v\n", err)
		return 1
	}
	if *record > 0 {
		return recordOutcomes(w, *seed, *record, expectedPath)
	}

	b := &bench{w: w, seed: *seed, traced: *traceFlag == 1,
		want: golden[w.name][strconv.FormatUint(*seed, 10)]}
	hostLine, _ := json.Marshal(hostInfo(w.name, *seed))
	fmt.Printf("host %s\n", hostLine)

	b.mem = watchMemory(heapCeilingMB<<20, 10*time.Millisecond, func(heap uint64) {
		fmt.Fprintf(os.Stderr, "perfbench: heap %d MB passed the %d MB ceiling; stopping the run as failed\n",
			heap>>20, heapCeilingMB)
		if b.emitFailure() {
			os.Exit(0)
		}
	})

	var setup []float64
	var boots []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // a collection left over from the last rep is not this rep's setup
		r := newOpRun(nil)
		t0 := time.Now()
		err := w.setup(r, opSeed(*seed, rep))
		setup = append(setup, time.Since(t0).Seconds())
		boots = append(boots, r.boots...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			b.mem.stop()
			b.emitFailure()
			return 0
		}
	}
	budget := time.Duration(*seconds * float64(time.Second))
	res := result{Metrics: map[string]metric{}}
	if !b.traced {
		ph := b.measure(budget, nil)
		units := e2eUnits()
		set := func(name string, v float64) { res.Metrics[name] = metric{v, units[name]} }
		set("host_s", ph.median(func(o opResult) float64 { return o.host }))
		set("sim_cycles_per_s", ph.sum(func(o opResult) float64 { return o.cycles })/
			ph.sum(func(o opResult) float64 { return o.host }))
		set("peak_rss_mb", ph.median(func(o opResult) float64 { return o.residentMB }))
		set("setup_s", median(setup))
		fmt.Fprintf(os.Stderr, "\n%s seed %d: %d ops\n", w.name, *seed, len(ph.ops))
	} else {
		var err error
		res.Metrics, err = b.tracedRun(budget, *outDir, median(setup), boots)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			b.mem.stop()
			return 1
		}
	}
	heap := b.mem.stop()
	fmt.Fprintf(os.Stderr, "heap peak %.1f MB (ceiling %d MB), process peak RSS %.1f MB\n",
		float64(heap)/(1<<20), heapCeilingMB, processPeakRSSMB())
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	res.Attempted, res.Failed = int(b.attempted.Load()), int(b.failed.Load())
	res.Correct = res.Failed == 0
	b.emit(res)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits and perLayerUnits name every metric a run reports, with its
// unit: the untraced run reports the first, the traced run the second.
func e2eUnits() map[string]string {
	return map[string]string{"host_s": "s", "sim_cycles_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
}

func perLayerUnits() map[string]string {
	u := map[string]string{
		"sim.cycles":                "count",
		"sim.events":                "count",
		"sim.ns_per_event":          "ns",
		"runtime.alloc_mb":          "MB",
		"runtime.gc_cycles":         "count",
		"machine.new_s":             "s",
		"trace.host_s":              "s",
		"trace.overhead_s":          "s",
		"profile.samples":           "count",
		"mem.retained_mb_per_op":    "MB",
		"runtime.goroutines_per_op": "count",
	}
	for _, l := range layers() {
		u[shareMetric(l)] = "%"
	}
	return u
}

// bench is one run of one workload. The heap watchdog reads the
// progress counters concurrently with the run.
type bench struct {
	w         benchWorkload
	seed      uint64
	traced    bool
	want      []string // golden outcomes of the first operations, if recorded
	mem       *memWatch
	attempted atomic.Int64
	failed    atomic.Int64
	emitOnce  sync.Once
}

// emit prints res as the last line of standard output, once per run;
// it reports whether this call printed.
func (b *bench) emit(res result) bool {
	printed := false
	b.emitOnce.Do(func() {
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		printed = true
	})
	return printed
}

// emitFailure reports a run stopped early: the operation in flight
// counts as failed and no metric was measured (every value is 0).
func (b *bench) emitFailure() bool {
	units := e2eUnits()
	if b.traced {
		units = perLayerUnits()
	}
	res := result{Attempted: int(b.attempted.Load()) + 1, Failed: int(b.failed.Load()) + 1,
		Metrics: map[string]metric{}}
	for n, u := range units {
		res.Metrics[n] = metric{0, u}
	}
	return b.emit(res)
}

// opRun collects one operation's measurements.
type opRun struct {
	tr       *spans
	host     time.Duration // inside the timed entry-point calls
	cycles   sim.Time
	events   int64
	boots    []float64 // seconds per machine.New
	counters map[string]float64
}

func newOpRun(tr *spans) *opRun { return &opRun{tr: tr, counters: map[string]float64{}} }

// timed runs one entry-point call: its wall time is the operation's
// host time, and the engines' cycle and event meters advance with it.
func (r *opRun) timed(name string, f func()) {
	c0, e0 := sim.CyclesSimulated(), sim.EventsDispatched()
	t0 := time.Now()
	r.tr.do(name, f)
	r.host += time.Since(t0)
	r.cycles += sim.CyclesSimulated() - c0
	r.events += sim.EventsDispatched() - e0
}

// boot builds a machine outside the timed calls.
func (r *opRun) boot(cfg machine.Config) (machine.Machine, error) {
	var (
		m   machine.Machine
		err error
	)
	t0 := time.Now()
	r.tr.do("machine.New", func() { m, err = machine.New(cfg) })
	r.boots = append(r.boots, time.Since(t0).Seconds())
	if err != nil {
		return nil, fmt.Errorf("machine.New %s: %w", cfg.Personality, err)
	}
	return m, nil
}

// statsCounters names the machine counters each layer reports.
var statsCounters = map[string]string{
	sim.CtrRegistryOps: "xn.registry_ops",
	sim.CtrCacheHits:   "xn.cache_hits",
	sim.CtrCacheMisses: "xn.cache_misses",
	sim.CtrUDFSteps:    "udf.steps",
	sim.CtrDiskReads:   "disk.reads",
	sim.CtrDiskWrites:  "disk.writes",
	sim.CtrDiskSeeks:   "disk.seeks",
	sim.CtrSyscalls:    "kernel.syscalls",
	sim.CtrCtxSwitches: "kernel.ctx_switches",
	sim.CtrCOWFaults:   "mem.cow_faults",
	sim.CtrPacketsTx:   "netsim.packets_tx",
	sim.CtrRetransmits: "netsim.retransmits",
}

func (r *opRun) addStats(s *sim.Stats) {
	for ctr, name := range statsCounters {
		r.counters[name] += float64(s.Get(ctr))
	}
}

// opResult is one finished operation.
type opResult struct {
	host, cycles, events float64
	allocMB, gcCycles    float64
	residentMB           float64 // peak resident above the start
	startMB, goroutines  float64 // resident and goroutines at the start
	boots                []float64
	counters             map[string]float64
}

type phase struct{ ops []opResult }

func (ph phase) median(f func(opResult) float64) float64 {
	v := make([]float64, len(ph.ops))
	for i, o := range ph.ops {
		v[i] = f(o)
	}
	return median(v)
}

// growthPerOp is how much f, read at each operation's start, grows per
// operation over the phase: memory or goroutines an operation leaves
// behind.
func (ph phase) growthPerOp(f func(opResult) float64) float64 {
	n := len(ph.ops)
	if n < 2 {
		return 0
	}
	return (f(ph.ops[n-1]) - f(ph.ops[0])) / float64(n-1)
}

func (ph phase) sum(f func(opResult) float64) float64 {
	s := 0.0
	for _, o := range ph.ops {
		s += f(o)
	}
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runtimeCounters reads cumulative heap allocation and GC cycles.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// measure runs operations 0, 1, ... until budget has passed (at least
// one), each on its own input, and checks each outcome: against the
// recorded golden line where one exists, else its invariants only.
func (b *bench) measure(budget time.Duration, tr *spans) phase {
	var ph phase
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		// Start every operation from a collected heap with its free
		// pages returned, so its resident peak is its own. The first
		// collection moves pooled buffers to sync.Pool's victim cache
		// and the second, inside FreeOSMemory, frees them: an operation
		// fills its buffer pools itself instead of inheriting the last
		// operation's.
		runtime.GC()
		debug.FreeOSMemory()
		start := b.mem.reset()
		goroutines := runtime.NumGoroutine()
		in := opSeed(b.seed, i)
		r := newOpRun(tr)
		if tr != nil {
			tr.op = i
		}
		a0, g0 := runtimeCounters()
		var (
			golden string
			err    error
		)
		tr.do("op", func() { golden, err = b.w.op(r, in) })
		a1, g1 := runtimeCounters()
		resident := b.mem.takePeak() - start
		check := "invariants"
		if i < len(b.want) {
			check = "golden"
			if err == nil && golden != b.want[i] {
				err = fmt.Errorf("outcome differs from expected.json\n  got  %s\n  want %s", golden, b.want[i])
			}
		}
		b.attempted.Add(1)
		status := "ok"
		if err != nil {
			b.failed.Add(1)
			status = "FAILED: " + err.Error()
		}
		fmt.Fprintf(os.Stderr, "op %2d input %10d: host %.4fs, %d cycles, peak resident +%.1f MB, %s check %s\n",
			i, in, r.host.Seconds(), r.cycles, float64(resident)/(1<<20), check, status)
		ph.ops = append(ph.ops, opResult{
			host:       r.host.Seconds(),
			cycles:     float64(r.cycles),
			events:     float64(r.events),
			allocMB:    float64(a1-a0) / (1 << 20),
			gcCycles:   float64(g1 - g0),
			residentMB: float64(resident) / (1 << 20),
			startMB:    float64(start) / (1 << 20),
			goroutines: float64(goroutines),
			boots:      r.boots,
			counters:   r.counters,
		})
	}
	return ph
}

// tracedRun measures half the budget untraced, then half traced under
// the CPU profiler and spans, and returns the per-layer metrics.
func (b *bench) tracedRun(budget time.Duration, outDir string, setupS float64, setupBoots []float64) (map[string]metric, error) {
	untraced := b.measure(budget/2, nil)
	tr := newSpans()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced := b.measure(budget/2, tr)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	att := attribute(samples)

	boots := append([]float64(nil), setupBoots...)
	for _, o := range traced.ops {
		boots = append(boots, o.boots...)
	}
	host := func(o opResult) float64 { return o.host }
	hostTraced, hostUntraced := traced.median(host), untraced.median(host)
	units := perLayerUnits()
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{v, units[name]} }
	for _, l := range layers() {
		set(shareMetric(l), att.share(l))
	}
	set("sim.cycles", traced.median(func(o opResult) float64 { return o.cycles }))
	set("sim.events", traced.median(func(o opResult) float64 { return o.events }))
	set("sim.ns_per_event", traced.median(func(o opResult) float64 { return o.host * 1e9 / max(o.events, 1) }))
	set("runtime.alloc_mb", traced.median(func(o opResult) float64 { return o.allocMB }))
	set("runtime.gc_cycles", traced.median(func(o opResult) float64 { return o.gcCycles }))
	set("machine.new_s", median(boots))
	set("trace.host_s", hostTraced)
	set("trace.overhead_s", hostTraced-hostUntraced)
	set("profile.samples", float64(att.samples))
	set("mem.retained_mb_per_op", traced.growthPerOp(func(o opResult) float64 { return o.startMB }))
	set("runtime.goroutines_per_op", traced.growthPerOp(func(o opResult) float64 { return o.goroutines }))

	b.report(att, traced, tr, hostUntraced, hostTraced, setupS)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	if err := os.WriteFile(base+".pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := tr.write(base + ".spans.json"); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "wrote %s.pprof (go tool pprof -top -tagfocus span=<name>) and %s.spans.json\n", base, base)
	return m, nil
}

// reportCounters lists the layer counters the report shows; a workload
// that does not expose one reports it absent.
var reportCounters = []string{
	"xn.registry_ops", "xn.cache_hit_ratio", "udf.steps",
	"disk.reads", "disk.writes", "disk.seeks",
	"kernel.syscalls", "kernel.ctx_switches", "mem.cow_faults",
	"netsim.packets_tx", "netsim.retransmits", "netsim.rtx_ratio",
	"netsim.drops", "netsim.completed_ratio",
	"crash.boundaries", "crash.violations",
}

// report prints the traced run's per-layer breakdown to stderr.
func (b *bench) report(att attribution, ph phase, tr *spans, hostUntraced, hostTraced, setupS float64) {
	e := os.Stderr
	fmt.Fprintf(e, "\n%s seed %d: traced %d ops; host_s untraced %.4f, traced %.4f, tracing overhead %+.4f s; setup_s %.4f\n",
		b.w.name, b.seed, len(ph.ops), hostUntraced, hostTraced, hostTraced-hostUntraced, setupS)
	fmt.Fprintf(e, "host time by layer (%d CPU samples, %.2f CPU s):\n", att.samples, float64(att.total)/1e9)
	ls := layers()
	sort.SliceStable(ls, func(i, j int) bool { return att.nanos[ls[i]] > att.nanos[ls[j]] })
	for _, l := range ls {
		if att.nanos[l] > 0 {
			fmt.Fprintf(e, "  %-22s %6.2f%%  %8.3f s\n", shareMetric(l), att.share(l), float64(att.nanos[l])/1e9)
		}
	}
	fmt.Fprintf(e, "layer counters (median per op):\n")
	for _, c := range reportCounters {
		var v []float64
		for _, o := range ph.ops {
			if x, ok := counterValue(o.counters, c); ok {
				v = append(v, x)
			}
		}
		if len(v) == 0 {
			fmt.Fprintf(e, "  %-22s absent\n", c)
			continue
		}
		fmt.Fprintf(e, "  %-22s %.6g\n", c, median(v))
	}
	fmt.Fprintf(e, "spans (total / self seconds):\n")
	for _, t := range tr.totals() {
		fmt.Fprintf(e, "  %-26s x%-4d %8.3f %8.3f\n", t.Name, t.Count, t.Total, t.Self)
	}
}

// counterValue reads a counter, deriving the ratios.
func counterValue(c map[string]float64, name string) (float64, bool) {
	ratio := func(num, den string) (float64, bool) {
		n, ok1 := c[num]
		d, ok2 := c[den]
		if !ok1 || !ok2 || d == 0 {
			return 0, false
		}
		return n / d, true
	}
	switch name {
	case "xn.cache_hit_ratio":
		h, ok := c["xn.cache_hits"]
		if !ok {
			return 0, false
		}
		return h / max(h+c["xn.cache_misses"], 1), true
	case "netsim.rtx_ratio":
		return ratio("netsim.retransmits", "netsim.completed")
	case "netsim.completed_ratio":
		return ratio("netsim.completed", "netsim.conns")
	}
	v, ok := c[name]
	return v, ok
}

// processPeakRSSMB is the whole process's peak resident set.
func processPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

type host struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostInfo(workload string, seed uint64) host {
	h := host{Workload: workload, Seed: seed, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", OS: runtime.GOOS, Arch: runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// recordOutcomes runs the first n operations of seed untimed and stores
// their outcomes in the expected-outcome file at path.
func recordOutcomes(w benchWorkload, seed uint64, n int, path string) int {
	all := map[string]map[string][]string{}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", path, err)
			return 1
		}
	}
	lines := make([]string, n)
	for i := range lines {
		g, err := w.op(newOpRun(nil), opSeed(seed, i))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
			return 1
		}
		lines[i] = g
		fmt.Fprintf(os.Stderr, "op %d: %s\n", i, g)
	}
	if all[w.name] == nil {
		all[w.name] = map[string][]string{}
	}
	all[w.name][strconv.FormatUint(seed, 10)] = lines
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
