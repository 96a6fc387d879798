package workload_test

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"xok/internal/core"
	"xok/internal/machine"
	"xok/internal/netsim"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/workload"
)

// testCells is a scaled-down acceptance sweep: 1 server vs 4 servers
// at the same offered load.
func testCells() []workload.ClusterConfig {
	return workload.ClusterCells(4, 400, 8000)
}

// renderCluster runs the sweep on a bench with the given worker count
// and returns the rendered report plus the combined latency digest.
func renderCluster(t *testing.T, parallel int) (string, uint64) {
	t.Helper()
	bench := core.Bench{BenchOpts: core.BenchOpts{Trace: trace.New(), Parallel: parallel}}
	rs, err := bench.Cluster(testCells())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	workload.WriteClusterReport(&buf, rs)
	return buf.String(), workload.ClusterDigest(rs)
}

// TestClusterParallelMatchesSerial: the cluster sweep renders
// byte-identically and digests identically at every worker count.
func TestClusterParallelMatchesSerial(t *testing.T) {
	serialOut, serialDigest := renderCluster(t, 1)
	for _, p := range []int{2, 4} {
		out, digest := renderCluster(t, p)
		if out != serialOut {
			t.Errorf("-parallel %d report differs from serial:\n--- serial ---\n%s--- parallel %d ---\n%s",
				p, serialOut, p, out)
		}
		if digest != serialDigest {
			t.Errorf("-parallel %d digest %#x != serial %#x", p, digest, serialDigest)
		}
	}
}

// renderCells runs the sweep cell by cell through run and returns the
// rendered report plus the combined latency digest.
func renderCells(t *testing.T, run func(workload.ClusterConfig) (workload.ClusterResult, error)) (string, uint64) {
	t.Helper()
	var rs []workload.ClusterResult
	for _, cell := range testCells() {
		r, err := run(cell)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	var buf bytes.Buffer
	workload.WriteClusterReport(&buf, rs)
	return buf.String(), workload.ClusterDigest(rs)
}

// onHeap runs one cell on an engine with the timer wheel off: the
// pure binary-heap reference the wheel must match.
func onHeap(cfg workload.ClusterConfig) (workload.ClusterResult, error) {
	eng := sim.NewEngine()
	eng.SetWheel(false)
	return workload.RunCluster(cfg, eng)
}

// TestClusterWheelMatchesHeap: the timer-wheel scheduling backend is
// an implementation detail — every cell's report bytes and latency
// digest are identical with the wheel on (default) and off (the
// pure-heap reference).
func TestClusterWheelMatchesHeap(t *testing.T) {
	wheelOut, wheelDigest := renderCells(t, workload.Cluster)
	heapOut, heapDigest := renderCells(t, onHeap)
	if heapOut != wheelOut {
		t.Errorf("heap report differs from wheel:\n--- wheel ---\n%s--- heap ---\n%s", wheelOut, heapOut)
	}
	if heapDigest != wheelDigest {
		t.Errorf("heap digest %#x != wheel %#x", heapDigest, wheelDigest)
	}
}

// TestClusterConns100kWheelDigest is the wheel smoke (`make
// wheel-smoke`): one 100k-connection cell, run with the wheel and with
// the pure heap, must complete every connection, and the two
// scheduling backends must produce identical latency digests and
// engine event counts (the wheel is an implementation detail at every
// scale). ~5 s/run unraced on a 2021 host — opt-in via
// XOK_WHEEL_SMOKE=1 so plain `go test ./...` stays fast.
func TestClusterConns100kWheelDigest(t *testing.T) {
	if os.Getenv("XOK_WHEEL_SMOKE") == "" {
		t.Skip("set XOK_WHEEL_SMOKE=1 (make wheel-smoke) to run the 100k-connection smoke")
	}
	cell := workload.ClusterConfig{
		Servers: 4, Conns: 100_000, Rate: 4000,
		Policy: netsim.LeastConnections,
	}
	run := func(name string, run func(workload.ClusterConfig) (workload.ClusterResult, error)) workload.ClusterResult {
		res, err := run(cell)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != res.Conns {
			t.Fatalf("%s: %d/%d connections completed", name, res.Completed, res.Conns)
		}
		return res
	}
	wheel := run("wheel", workload.Cluster)
	heap := run("heap", onHeap)
	if wheel.Digest != heap.Digest {
		t.Errorf("100k-connection digest: wheel %#x != heap %#x", wheel.Digest, heap.Digest)
	}
	if wheel.EngineEvents != heap.EngineEvents {
		t.Errorf("100k-connection event count: wheel %d != heap %d", wheel.EngineEvents, heap.EngineEvents)
	}
}

// TestClusterRejectsNegativeSizes: a negative size is an error up
// front, never a panic in the fabric or a run at a substituted value.
func TestClusterRejectsNegativeSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  workload.ClusterConfig
		want string
	}{
		{"servers", workload.ClusterConfig{Servers: -1}, "server count"},
		{"conns", workload.ClusterConfig{Conns: -5}, "connection count"},
		{"rate", workload.ClusterConfig{Rate: -100}, "arrival rate"},
		{"rate-nan", workload.ClusterConfig{Rate: math.NaN()}, "arrival rate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := workload.Cluster(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Cluster(%+v) error = %v, want one naming the %s", tc.cfg, err, tc.want)
			}
		})
	}
}

// TestClusterThroughputScales: at a fixed offered load past one
// server's capacity, 4 servers must deliver at least 2.5x the
// single-server throughput, and every connection must complete.
func TestClusterThroughputScales(t *testing.T) {
	var bench core.Bench
	rs, err := bench.Cluster(testCells())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Completed != r.Conns {
			t.Errorf("%d servers (%v): completed %d/%d connections",
				r.Servers, r.Policy, r.Completed, r.Conns)
		}
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("%d servers (%v): implausible quantiles p50=%v p99=%v",
				r.Servers, r.Policy, r.P50, r.P99)
		}
	}
	base, scaled := rs[0], rs[1]
	if ratio := scaled.ReqPerSec / base.ReqPerSec; ratio < 2.5 {
		t.Errorf("4-server/1-server throughput = %.2fx, want >= 2.5x (%.0f vs %.0f req/s)",
			ratio, scaled.ReqPerSec, base.ReqPerSec)
	}
}

// TestClusterBalancerSpread: round-robin spreads exactly evenly;
// least-connections stays within a few connections of even.
func TestClusterBalancerSpread(t *testing.T) {
	var bench core.Bench
	rs, err := bench.Cluster(testCells())
	if err != nil {
		t.Fatal(err)
	}
	rr, lc := rs[1], rs[2]
	per := int64(rr.Conns / rr.Servers)
	for i, n := range rr.Assignments {
		if n != per {
			t.Errorf("round-robin backend %d got %d connections, want %d", i, n, per)
		}
	}
	var total int64
	for i, n := range lc.Assignments {
		total += n
		if n < per/2 || n > per*2 {
			t.Errorf("least-conn backend %d got %d connections, want near %d", i, n, per)
		}
	}
	if total != int64(lc.Conns) {
		t.Errorf("least-conn assigned %d connections total, want %d", total, lc.Conns)
	}
}

// TestMachinesShareFabricClock: machines attached to one topology boot
// on the fabric's engine — one event queue, one virtual clock.
func TestMachinesShareFabricClock(t *testing.T) {
	topo := netsim.NewTopology()
	var atts [2]*netsim.Attachment
	for i := range atts {
		atts[i] = &netsim.Attachment{Topology: topo}
		m, err := machine.New(machine.Config{
			Personality: machine.XokExOS,
			DiskBlocks:  1 << 15,
			Net:         atts[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if m.Kern().Eng != topo.Engine() {
			t.Fatalf("machine %d booted on its own engine, not the fabric's", i)
		}
		if atts[i].NIC == nil {
			t.Fatalf("machine %d: attachment NIC not filled in", i)
		}
	}
	if atts[0].Host == atts[1].Host {
		t.Error("both machines attached to the same host id")
	}
}
