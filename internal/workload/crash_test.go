package workload

import (
	"runtime"
	"testing"
	"time"

	"xok/internal/fault"
)

// TestCrashEnumerationMAB is the headline recovery check: crash the
// MAB workload at sampled synchronous-write boundaries with torn
// writes armed; every image must remount and audit clean, and the
// sweep must be bit-identical across two same-seed runs.
func TestCrashEnumerationMAB(t *testing.T) {
	cfg := CrashConfig{Plan: &fault.Plan{Seed: 42, TornWrites: true}, MaxPoints: 10}
	res, err := CrashEnumerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Boundaries
	if want > cfg.MaxPoints {
		want = cfg.MaxPoints
	}
	if want == 0 || len(res.Points) != want {
		t.Fatalf("boundaries=%d points=%d, want %d sampled points", res.Boundaries, len(res.Points), want)
	}
	for _, pt := range res.Points {
		for _, v := range pt.Violations {
			t.Errorf("crash@%v: %s", pt.At, v)
		}
	}
	if res.Violations() != 0 {
		t.Fatalf("%d of %d crash points failed recovery", res.Violations(), len(res.Points))
	}

	cfg2 := CrashConfig{Plan: &fault.Plan{Seed: 42, TornWrites: true}, MaxPoints: 10}
	res2, err := CrashEnumerate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Digest != res.Digest {
		t.Fatalf("same seed diverged: digest %016x vs %016x", res.Digest, res2.Digest)
	}
	if res2.Boundaries != res.Boundaries {
		t.Fatalf("boundary count diverged: %d vs %d", res.Boundaries, res2.Boundaries)
	}
}

// TestCrashEnumerationSeedSensitivity: the recovery guarantee is
// seed-independent — any plan seed must sweep clean. (With only torn
// writes armed no rate-based channel draws from the seed streams, so
// torn content is fixed by the crash instant; seeds matter once
// readerr/loss-style knobs are armed.)
func TestCrashEnumerationSeedSensitivity(t *testing.T) {
	res, err := CrashEnumerate(CrashConfig{Plan: &fault.Plan{Seed: 7, TornWrites: true}, MaxPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations() != 0 {
		t.Fatalf("seed 7: %d crash points failed recovery", res.Violations())
	}
}

// TestCrashParallelMatchesSerial: fanning the per-point trials across
// workers must not change the sweep — same sampled boundaries, same
// per-point audit findings, same outcome digest. Each trial boots its
// own machine under its own plan clone, so this holds by construction;
// the test is the guard that keeps it true.
func TestCrashParallelMatchesSerial(t *testing.T) {
	mk := func(workers int) CrashResult {
		res, err := CrashEnumerate(CrashConfig{
			Plan:      &fault.Plan{Seed: 42, TornWrites: true},
			MaxPoints: 6,
			Parallel:  workers,
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		return res
	}
	serial := mk(1)
	for _, workers := range []int{3, 8} {
		par := mk(workers)
		if par.Digest != serial.Digest {
			t.Fatalf("parallel=%d digest %#x, serial %#x", workers, par.Digest, serial.Digest)
		}
		if par.Boundaries != serial.Boundaries || len(par.Points) != len(serial.Points) {
			t.Fatalf("parallel=%d shape differs: %d/%d boundaries, %d/%d points",
				workers, par.Boundaries, serial.Boundaries, len(par.Points), len(serial.Points))
		}
		for i := range par.Points {
			if par.Points[i].At != serial.Points[i].At {
				t.Fatalf("point %d crashes at %v parallel vs %v serial", i, par.Points[i].At, serial.Points[i].At)
			}
		}
	}
}

// TestCrashSnapshotMatchesFromBoot: the fork-based fast path (trials
// fork from the segment-boundary snapshot nearest their crash point)
// must reproduce the from-boot sweep exactly — same boundaries, same
// crash instants, same audit findings, same digest — serially and
// with trials forking concurrently from shared snapshots.
func TestCrashSnapshotMatchesFromBoot(t *testing.T) {
	mk := func(snapshot bool, workers int) CrashResult {
		res, err := CrashEnumerate(CrashConfig{
			Plan:      &fault.Plan{Seed: 42, TornWrites: true},
			MaxPoints: 8,
			Parallel:  workers,
			Snapshot:  snapshot,
		})
		if err != nil {
			t.Fatalf("snapshot=%v parallel=%d: %v", snapshot, workers, err)
		}
		return res
	}
	ref := mk(false, 1)
	if ref.Violations() != 0 {
		t.Fatalf("from-boot sweep: %d crash points failed recovery", ref.Violations())
	}
	for _, workers := range []int{1, 4} {
		got := mk(true, workers)
		if got.Digest != ref.Digest || got.Boundaries != ref.Boundaries || len(got.Points) != len(ref.Points) {
			t.Fatalf("snapshot parallel=%d: digest %#x boundaries %d points %d, from-boot digest %#x boundaries %d points %d",
				workers, got.Digest, got.Boundaries, len(got.Points), ref.Digest, ref.Boundaries, len(ref.Points))
		}
	}
}

// TestCrashEnumerateReleasesGoroutines: a crash that cuts power while
// an environment is mid-burst (parked in Env.Use, e.g. inside exos
// Proc.Spawn) must still kill that environment, or its goroutine — and
// with it the whole crashed machine — outlives the sweep.
func TestCrashEnumerateReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	if _, err := CrashEnumerate(CrashConfig{Plan: &fault.Plan{Seed: 1, TornWrites: true}, Snapshot: true}); err != nil {
		t.Fatal(err)
	}
	// Killed goroutines unwind asynchronously; give them a moment.
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > base; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%d goroutines after the sweep, %d before", n, base)
	}
}
