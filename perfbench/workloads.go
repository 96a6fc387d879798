package main

import (
	"fmt"
	"hash/fnv"

	"xok/internal/difftest"
	"xok/internal/fault"
	"xok/internal/machine"
	"xok/internal/netsim"
	"xok/internal/parallel"
	"xok/internal/sim"
	"xok/internal/workload"
)

// A benchWorkload is one named input family. Every operation draws its
// own input from the run's seed (opSeed), so a run measures a sample
// of inputs rather than one; the per-operation median then tracks the
// simulator, not the luck of one draw.
type benchWorkload struct {
	name string
	// setup performs, once, everything an operation pays before the
	// timed entry-point calls: input generation and a machine.New of
	// every machine configuration the workload boots. It is repeated
	// to report a median setup time.
	setup func(r *opRun, in uint64) error
	// op runs one operation on input in. Entry-point calls go through
	// r.timed, boots through r.boot. It returns the operation's golden
	// outcome line (compared against expected.json) and any violated
	// invariant (checked on every seed).
	op func(r *opRun, in uint64) (golden string, err error)
}

var workloads = []benchWorkload{
	{name: "multitask", setup: multitaskSetup, op: multitaskOp},
	{name: "harness", setup: harnessSetup, op: harnessOp},
	{name: "cluster", setup: clusterSetup(clusterServers), op: clusterOp(clusterServers, clusterConns)},
	{name: "overload", setup: clusterSetup(overloadServers), op: clusterOp(overloadServers, overloadConns)},
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// opSeed derives operation i's input seed from the run seed
// (splitmix64). The result is in [1, 2^31], small enough to pass
// verbatim to xok-bench flags when replaying one operation.
func opSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z>>33 + 1
}

// statsDigest fingerprints every counter of a machine.
func statsDigest(s *sim.Stats) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.String()))
	return h.Sum64()
}

// --- multitask: the Figure 4 pool-1 job mix, Xok/ExOS then FreeBSD.

// multitaskConc is the closed loop's concurrency: Figure 4's N/1 cell,
// one job at a time. At 2, the seed's job order decides which writers
// overlap, and with them the dirty-scan cost and the peak heap, so host
// time and memory wander with the seed instead of with the simulator.
const multitaskConc = 1

var multitaskLegs = []machine.Personality{machine.XokExOS, machine.FreeBSD}

// multitaskSchedule returns the first GlobalPerf schedule seed at or
// after in whose draw runs every pool-1 job exactly once. A free draw
// of nine jobs with replacement moves host time 2x from seed to seed
// (sor alone costs ten gcc runs); a permutation keeps the work fixed
// and lets the seed choose only the order, and so which jobs overlap.
func multitaskSchedule(in uint64, jobs int) uint64 {
	seen := make([]bool, jobs)
	for s := in; ; s++ {
		clear(seen)
		rng := sim.NewRNG(s)
		ok := true
		for i := 0; i < jobs && ok; i++ {
			k := rng.Intn(jobs)
			ok = !seen[k]
			seen[k] = true
		}
		if ok {
			return s
		}
	}
}

func multitaskSetup(r *opRun, in uint64) error {
	multitaskSchedule(in, len(workload.Pool1()))
	for _, p := range multitaskLegs {
		m, err := r.boot(machine.Config{Personality: p})
		if err != nil {
			return err
		}
		m.Close()
	}
	return nil
}

func multitaskOp(r *opRun, in uint64) (string, error) {
	pool := workload.Pool1()
	sched := multitaskSchedule(in, len(pool))
	golden := fmt.Sprintf("schedule=%d", sched)
	for _, p := range multitaskLegs {
		m, err := r.boot(machine.Config{Personality: p})
		if err != nil {
			return "", err
		}
		var res workload.GlobalResult
		r.timed("workload.GlobalPerf", func() {
			res, err = workload.GlobalPerf(m, pool, len(pool), multitaskConc, sched)
		})
		if err == nil {
			r.addStats(m.Stats())
			golden += fmt.Sprintf(" | %s total=%d max=%d min=%d stats=%016x",
				res.System, res.Total, res.Max, res.Min, statsDigest(m.Stats()))
		}
		m.Close()
		if err != nil {
			return "", fmt.Errorf("%s: %w", p, err)
		}
		if res.Min <= 0 || res.Min > res.Max || res.Max > res.Total {
			return golden, fmt.Errorf("%s: job times out of order: total %d, max %d, min %d",
				p, res.Total, res.Max, res.Min)
		}
	}
	return golden, nil
}

// --- harness: a difftest campaign, then the crash-point sweep.

const (
	harnessPrograms    = 100
	harnessSteps       = 40 // difftest's default program length
	harnessCrashPoints = 48 // CrashEnumerate's default sweep
)

// The machine configurations the harness entry points boot: difftest's
// defaults for every personality, and the crash sweep's Xok machine.
func harnessConfigs(in uint64) []machine.Config {
	var cfgs []machine.Config
	for _, p := range machine.Personalities() {
		cfgs = append(cfgs, machine.Config{Personality: p, DiskBlocks: 16384, MemPages: 2048})
	}
	return append(cfgs, machine.Config{Personality: machine.XokExOS, DiskBlocks: 32768, MemPages: 4096,
		Faults: &fault.Plan{Seed: in, TornWrites: true}})
}

func harnessSetup(r *opRun, in uint64) error {
	for i := 0; i < harnessPrograms; i++ {
		difftest.Generate(in+uint64(i), harnessSteps)
	}
	for _, cfg := range harnessConfigs(in) {
		m, err := r.boot(cfg)
		if err != nil {
			return err
		}
		m.Close()
	}
	return nil
}

func harnessOp(r *opRun, in uint64) (string, error) {
	workers := parallel.Workers(0)
	var (
		div *difftest.Divergence
		err error
	)
	r.timed("difftest.Fuzz", func() {
		div, err = difftest.Fuzz(difftest.Options{
			Seeds: harnessPrograms, Steps: harnessSteps, BaseSeed: in,
			Parallel: workers, Snapshot: true,
		})
	})
	if err != nil {
		return "", fmt.Errorf("difftest: %w", err)
	}
	if div != nil {
		return "", div
	}
	var cr workload.CrashResult
	r.timed("workload.CrashEnumerate", func() {
		cr, err = workload.CrashEnumerate(workload.CrashConfig{
			Plan:     &fault.Plan{Seed: in, TornWrites: true},
			Parallel: workers, Snapshot: true,
		})
	})
	if err != nil {
		return "", fmt.Errorf("crash sweep: %w", err)
	}
	r.counters["crash.boundaries"] += float64(cr.Boundaries)
	r.counters["crash.violations"] += float64(cr.Violations())
	golden := fmt.Sprintf("programs=%d clean | boundaries=%d points=%d violations=%d digest=%016x",
		harnessPrograms, cr.Boundaries, len(cr.Points), cr.Violations(), cr.Digest)
	for _, pt := range cr.Points {
		if len(pt.Violations) > 0 {
			return golden, fmt.Errorf("crash sweep: %d of %d points failed recovery, first at %d: %v",
				cr.Violations(), len(cr.Points), pt.At, pt.Violations)
		}
	}
	if want := min(harnessCrashPoints, cr.Boundaries); len(cr.Points) != want {
		return golden, fmt.Errorf("crash sweep: %d points, want %d", len(cr.Points), want)
	}
	return golden, nil
}

// --- cluster and overload: one open-loop cell of Socket/Xok servers
// behind a least-connections balancer at a fixed offered load.

const (
	clusterRate     = 4000 // arrivals per simulated second
	clusterServers  = 4    // aggregate capacity just above clusterRate
	clusterConns    = 40000
	overloadServers = 1    // about 1.1k req/s of capacity
	overloadConns   = 6000 // the backlog stays below the memory cliff
)

// clusterSetup boots the server machines a cell boots: small Xok/ExOS
// machines attached to one fabric.
func clusterSetup(servers int) func(*opRun, uint64) error {
	return func(r *opRun, _ uint64) error {
		topo := netsim.NewTopology()
		for i := 0; i < servers; i++ {
			att := &netsim.Attachment{Topology: topo, Name: fmt.Sprintf("srv%d", i)}
			m, err := r.boot(machine.Config{Personality: machine.XokExOS,
				DiskBlocks: 1 << 16, MemPages: 2048, Net: att})
			if err != nil {
				return err
			}
			defer m.Close()
		}
		return nil
	}
}

func clusterOp(servers, conns int) func(*opRun, uint64) (string, error) {
	return func(r *opRun, in uint64) (string, error) {
		var (
			res workload.ClusterResult
			err error
		)
		r.timed("workload.Cluster", func() {
			res, err = workload.Cluster(workload.ClusterConfig{
				Servers: servers, Conns: conns, Rate: clusterRate,
				Policy: netsim.LeastConnections, Seed: in,
			})
		})
		if err != nil {
			return "", err
		}
		r.counters["netsim.conns"] += float64(conns)
		r.counters["netsim.completed"] += float64(res.Completed)
		r.counters["netsim.retransmits"] += float64(res.Retransmits)
		r.counters["netsim.drops"] += float64(res.Drops)
		golden := fmt.Sprintf("completed=%d rtx=%d drops=%d p50=%d p99=%d max=%d digest=%016x",
			res.Completed, res.Retransmits, res.Drops, res.P50, res.P99, res.Max, res.Digest)
		switch {
		case servers > 1 && res.Completed != conns:
			return golden, fmt.Errorf("cluster: %d of %d connections completed", res.Completed, conns)
		case res.Completed <= 0 || res.Completed > conns:
			return golden, fmt.Errorf("overload: %d of %d connections completed", res.Completed, conns)
		}
		return golden, nil
	}
}
