package xok

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"xok/internal/difftest"
)

// TestPerfSanityParallelNotSlower is the `make perf-sanity` gate: the
// difftest campaign fanned across 4 workers must not run meaningfully
// slower than the identical campaign serial. It is a wall-clock test,
// so it only runs when `make perf-sanity` opts in via XOK_PERF_SANITY —
// inside the ordinary `go test ./...` sweep (and especially under
// -race) the timing would be pure noise.
//
// The tolerance is deliberately one-sided. On a single-CPU host real
// speedup is impossible and speedup ≈ 1 is the healthy reading; on a
// multi-core host parallel should win outright. In both cases
// parallel-4 losing to serial by more than the tolerance means the
// harness is burning time on coordination or shared-state contention —
// the zero-speedup regression this PR fixed, caught at `make check`
// time instead of in the committed BENCH_sim.json diff.
func TestPerfSanityParallelNotSlower(t *testing.T) {
	if os.Getenv("XOK_PERF_SANITY") == "" {
		t.Skip("wall-clock gate; run via `make perf-sanity` (XOK_PERF_SANITY=1)")
	}
	const seeds = 40
	run := func(workers int) time.Duration {
		start := time.Now()
		div, err := difftest.Fuzz(difftest.Options{Seeds: seeds, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		if div != nil {
			t.Fatalf("unexpected divergence: %v", div)
		}
		return time.Since(start)
	}
	// Warm the process-wide caches (UDF assembly memo, buffer pools) so
	// both timed runs see steady state, then take the best of two runs
	// each to damp scheduler noise.
	run(1)
	serial := min(run(1), run(1))
	parallel := min(run(4), run(4))

	limit := serial + serial/2 // 1.5x: generous, but a contended pool blows past it
	if parallel > limit {
		t.Fatalf("parallel-4 took %v vs serial %v on GOMAXPROCS=%d: beyond the 1.5x tolerance (%v)",
			parallel, serial, runtime.GOMAXPROCS(0), limit)
	}
	t.Logf("serial %v, parallel-4 %v, speedup %.2fx (GOMAXPROCS=%d)",
		serial, parallel, float64(serial)/float64(parallel), runtime.GOMAXPROCS(0))
}

// TestPerfSanityNoCommittedRegressions reads the committed
// BENCH_sim.json and refuses any derived speedup row benchjson flagged
// "regression": true — a slowdown cannot land silently in the
// baseline. Two severities:
//
//   - wheel rows (heap vs timer wheel) are single-threaded and
//     deterministic, so a regression is real on any host and always
//     fails;
//   - parallel/snapshot rows compare concurrent execution, and
//     on a host without CPUs to spare (BENCH_sim.json records its
//     host's num_cpu; the committed baseline had 2) a ratio hovering
//     just under 1.0 — the BenchmarkCrashSweepSnapshot Parallel4 0.93x
//     once committed — is scheduler measurement noise, not
//     contention. Those rows fail only when NumCPU >= 4, where
//     parallel must genuinely win.
func TestPerfSanityNoCommittedRegressions(t *testing.T) {
	if os.Getenv("XOK_PERF_SANITY") == "" {
		t.Skip("baseline gate; run via `make perf-sanity` (XOK_PERF_SANITY=1)")
	}
	raw, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	type row struct {
		Base       string  `json:"base"`
		Case       string  `json:"case"`
		Mode       string  `json:"mode"`
		Workers    int     `json:"workers"`
		Speedup    float64 `json:"speedup"`
		Regression bool    `json:"regression"`
	}
	var rep struct {
		ParallelSpeedups []row `json:"parallel_speedups"`
		SnapshotSpeedups []row `json:"snapshot_speedups"`
		WheelSpeedups    []row `json:"wheel_speedups"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_sim.json: %v", err)
	}
	label := func(kind string, r row) string {
		return fmt.Sprintf("%s %s%s%s (%.2fx)", kind, r.Base, r.Case, r.Mode, r.Speedup)
	}
	for _, r := range rep.WheelSpeedups {
		if r.Regression {
			t.Errorf("committed wheel regression: %s — the timer wheel must not lose to the heap", label("wheel", r))
		}
	}
	concurrent := map[string][]row{
		"parallel": rep.ParallelSpeedups,
		"snapshot": rep.SnapshotSpeedups,
	}
	for kind, rows := range concurrent {
		for _, r := range rows {
			if !r.Regression {
				continue
			}
			if runtime.NumCPU() >= 4 {
				t.Errorf("committed %s regression: %s on %d CPUs", kind, label(kind, r), runtime.NumCPU())
			} else {
				t.Logf("tolerating committed %s row %s: measurement noise with too few CPUs (NumCPU=%d < 4)",
					kind, label(kind, r), runtime.NumCPU())
			}
		}
	}
}
