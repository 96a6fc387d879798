package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"xok/internal/sim"
	"xok/internal/workload"
)

// BENCHMARK.json declares exactly the metrics a run reports.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, reported map[string]string) {
		seen := map[string]bool{}
		for _, m := range declared {
			seen[m.Name] = true
			if u, ok := reported[m.Name]; !ok {
				t.Errorf("%s metric %q is declared but not reported", kind, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s metric %q: declared unit %q, reported %q", kind, m.Name, m.Unit, u)
			}
		}
		for n := range reported {
			if !seen[n] {
				t.Errorf("%s metric %q is reported but not declared", kind, n)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eUnits())
	check("per_layer", spec.PerLayer, perLayerUnits())
	for _, w := range spec.Workload {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
	}
	if len(spec.Workload) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workload), len(workloads))
	}
}

// The heap guard trips once the heap passes its ceiling, and stays
// quiet below it.
func TestMemWatchTripsAtCeiling(t *testing.T) {
	tripped := make(chan uint64, 1)
	w := watchMemory(1, time.Millisecond, func(heap uint64) { tripped <- heap })
	select {
	case heap := <-tripped:
		if heap <= 1 {
			t.Errorf("tripped at %d bytes, want above the 1-byte ceiling", heap)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("heap guard did not trip")
	}
	w.stop()

	w = watchMemory(1<<50, time.Millisecond, func(uint64) { t.Error("tripped below the ceiling") })
	time.Sleep(20 * time.Millisecond)
	if p := w.takePeak(); p == 0 {
		t.Error("no resident peak recorded")
	}
	if heap := w.stop(); heap == 0 {
		t.Error("no heap peak recorded")
	}
}

func TestSpanSelfTime(t *testing.T) {
	s := &spans{list: []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "machine.New", Start: 0, End: 1},
		{ID: 3, Parent: 1, Name: "workload.GlobalPerf", Start: 1, End: 9},
	}}
	want := map[string][2]float64{"op": {10, 1}, "machine.New": {1, 1}, "workload.GlobalPerf": {8, 8}}
	for _, tot := range s.totals() {
		if w := want[tot.Name]; tot.Total != w[0] || tot.Self != w[1] {
			t.Errorf("%s: total %g self %g, want %g %g", tot.Name, tot.Total, tot.Self, w[0], w[1])
		}
	}
}

// Every multitask schedule runs each pool-1 job exactly once.
func TestMultitaskScheduleIsPermutation(t *testing.T) {
	jobs := len(workload.Pool1())
	for i := 0; i < 20; i++ {
		s := multitaskSchedule(opSeed(1, i), jobs)
		rng := sim.NewRNG(s)
		seen := make([]bool, jobs)
		for j := 0; j < jobs; j++ {
			k := rng.Intn(jobs)
			if seen[k] {
				t.Fatalf("schedule %d draws job %d twice", s, k)
			}
			seen[k] = true
		}
	}
}

func TestOpSeedRange(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for i := 0; i < 64; i++ {
			s := opSeed(seed, i)
			if s == 0 || s > 1<<31 {
				t.Fatalf("opSeed(%d, %d) = %d, want in [1, 2^31]", seed, i, s)
			}
			seen[s] = true
		}
	}
	if len(seen) < 250 {
		t.Errorf("only %d distinct inputs in 256 draws", len(seen))
	}
}
