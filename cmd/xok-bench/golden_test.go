package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"xok/internal/parallel"
	"xok/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// goldenDir pins each experiment's output at default sizes:
// <name>.txt is the stdout of `xok-bench -run <name>`, <name>.meter the
// simulated cycles and engine events its stderr summary line reports.
// The printed tables round to milliseconds; the meter catches a change
// of a single cycle.
const goldenDir = "../../testdata/golden"

// TestGoldenOutputs runs every experiment, in -run all's order, exactly
// as `xok-bench -run <name>` does and compares its stdout and meter byte
// for byte with the committed files. A host-time optimisation must
// leave these untouched; a deliberate change to simulated results
// regenerates them with
//
//	go test ./cmd/xok-bench -run TestGoldenOutputs -update
//
// and the diff shows what moved.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment in full (seconds of host time)")
	}
	bench.Parallel = parallel.Workers(0)
	for _, name := range order {
		t.Run(name, func(t *testing.T) {
			cycles, events := sim.CyclesSimulated(), sim.EventsDispatched()
			out := captureStdout(t, experiments[name])
			meter := fmt.Sprintf("%d cycles simulated, %d events\n",
				sim.CyclesSimulated()-cycles, sim.EventsDispatched()-events)
			compareGolden(t, name+".txt", out)
			compareGolden(t, name+".meter", []byte(meter))
		})
	}
}

// compareGolden checks got against goldenDir/file, or rewrites the
// file under -update.
func compareGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// captureStdout runs fn with os.Stdout redirected to a temporary file
// and returns what it printed.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
