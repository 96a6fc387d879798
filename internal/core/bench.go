package core

import (
	"fmt"

	"xok/internal/apps"
	"xok/internal/cap"
	"xok/internal/emu"
	"xok/internal/exos"
	"xok/internal/httpd"
	"xok/internal/kernel"
	"xok/internal/machine"
	"xok/internal/ostest"
	"xok/internal/parallel"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/unix"
	"xok/internal/workload"
)

// Bench is the one driver of the paper's experiments: cmd/xok-bench
// prints every table from its methods. It carries two orthogonal
// knobs, a trace sink and a worker count; the zero value runs serially
// and untraced.
//
// Every experiment decomposes into independent "legs" — one simulated
// machine booted, run and measured in isolation (a Figure-2 system, a
// Table-2 pipe implementation, one copy of Section 7.2, one
// server×size cell of Figure 3, one system of a Figure 4/5 cell). Legs
// run on up to Parallel worker goroutines; each leg gets its own
// trace.Tracer, merged into Trace in presentation order after all legs
// finish. Results, table order, and
// the trace sink's digest are therefore identical at every Parallel
// setting, including 1 (which takes internal/parallel's no-goroutine
// serial path).
type Bench struct {
	BenchOpts
}

// BenchOpts are the cross-cutting experiment knobs — the options
// every experiment accepts without threading them positionally
// through internal/workload. The zero value is a serial, untraced
// run.
type BenchOpts struct {
	// Trace, when non-nil, collects every leg's spans, histograms and
	// counters (cmd/xok-bench feeds -trace/-hist from it).
	Trace *trace.Tracer
	// Parallel bounds the worker pool; <= 1 runs legs serially.
	// cmd/xok-bench resolves its -parallel flag (0 = one worker per
	// CPU) with parallel.Workers before setting this.
	Parallel int
}

func (b *Bench) workers() int {
	if b.Parallel <= 1 {
		return 1
	}
	return b.Parallel
}

type leg[R any] struct {
	res R
	tr  *trace.Tracer
	err error
}

// runLegs fans run(0..n-1) across the bench's worker pool. Each leg
// receives a private tracer (nil when the bench has no sink); legs
// merge into b.Trace in index order. The first failing index aborts
// with its error, matching a serial loop.
func runLegs[R any](b *Bench, n int, run func(i int, tr *trace.Tracer) (R, error)) ([]R, error) {
	legs := parallel.Map(b.workers(), n, func(i int) leg[R] {
		var tr *trace.Tracer
		if b.Trace != nil {
			tr = trace.New()
		}
		r, err := run(i, tr)
		return leg[R]{r, tr, err}
	})
	out := make([]R, 0, n)
	for _, l := range legs {
		if l.err != nil {
			return nil, l.err
		}
		b.Trace.Merge(l.tr)
		out = append(out, l.res)
	}
	return out, nil
}

// Figure2 executes the I/O-intensive lcc-install workload (Table 1)
// on the four systems of Figure 2, in the paper's order.
func (b *Bench) Figure2() ([]workload.IOResult, error) {
	cfgs := workload.SystemConfigs()
	return runLegs(b, len(cfgs), func(i int, tr *trace.Tracer) (workload.IOResult, error) {
		cfg := cfgs[i]
		cfg.Trace = tr
		return workload.IOIntensive(machine.MustNew(cfg))
	})
}

// MAB executes the Modified Andrew Benchmark on the four systems.
func (b *Bench) MAB() ([]workload.MABResult, error) {
	cfgs := workload.SystemConfigs()
	return runLegs(b, len(cfgs), func(i int, tr *trace.Tracer) (workload.MABResult, error) {
		cfg := cfgs[i]
		cfg.Trace = tr
		return workload.MAB(machine.MustNew(cfg))
	})
}

// ProtectionCost executes the Section 6.3 experiment: the I/O workload
// with and without XN + shared-state protection. The two
// configurations are independent machines, so they run as two legs.
func (b *Bench) ProtectionCost() (workload.ProtectionResult, error) {
	cfgs := []machine.Config{
		{Personality: machine.XokExOS},
		{Personality: machine.XokUnprotected},
	}
	rs, err := runLegs(b, len(cfgs), func(i int, tr *trace.Tracer) (workload.IOResult, error) {
		cfg := cfgs[i]
		cfg.Trace = tr
		return workload.IOIntensive(machine.MustNew(cfg))
	})
	if err != nil {
		return workload.ProtectionResult{}, err
	}
	return workload.ProtectionResult{WithProtection: rs[0], WithoutProtection: rs[1]}, nil
}

// Table2 measures the three pipe implementations of Table 2:
// shared-memory ExOS pipes, protected ExOS pipes (software regions +
// wakeup predicates), and OpenBSD's in-kernel pipes.
func (b *Bench) Table2() ([]Table2Row, error) {
	const rounds = 200
	specs := []struct {
		impl string
		cfg  machine.Config
	}{
		{"Shared memory", machine.Config{Personality: machine.XokExOS, SharedMemPipes: true}},
		{"Protection", machine.Config{Personality: machine.XokExOS}},
		{"OpenBSD", machine.Config{Personality: machine.OpenBSD}},
	}
	return runLegs(b, len(specs), func(i int, tr *trace.Tracer) (Table2Row, error) {
		cfg := specs[i].cfg
		cfg.Trace = tr
		run := machine.Runner(machine.MustNew(cfg))
		row := Table2Row{
			Impl:   specs[i].impl,
			Lat1B:  ostest.PipeLatency(run, 1, rounds),
			Lat8KB: ostest.PipeLatency(run, 8192, rounds),
		}
		if row.Lat1B == 0 || row.Lat8KB == 0 {
			return row, fmt.Errorf("core: pipe measurement failed for %s", row.Impl)
		}
		return row, nil
	})
}

// EmulatorResult is the Section 7.1 getpid comparison, in cycles per
// call.
type EmulatorResult struct {
	Native   sim.Time // OpenBSD's getpid, a real kernel crossing
	Emulated sim.Time // the same call from an OpenBSD binary on Xok/ExOS
}

// Emulator measures the Section 7.1 microbenchmark: getpid natively on
// OpenBSD, and on Xok/ExOS through internal/emu, where the INT is
// rerouted into the emulator and becomes a procedure call into ExOS.
func (b *Bench) Emulator() (EmulatorResult, error) {
	// Leg 0 is the emulated call on Xok/ExOS, leg 1 the native one.
	rs, err := runLegs(b, 2, func(i int, tr *trace.Tracer) (sim.Time, error) {
		var run ostest.RunFunc
		if i == 0 {
			xok := machine.Runner(machine.MustNew(machine.Config{Personality: machine.XokExOS, Trace: tr}))
			run = func(main func(unix.Proc)) {
				xok(func(p unix.Proc) { main(emu.Emulate(p.(*exos.Proc))) })
			}
		} else {
			run = machine.Runner(machine.MustNew(machine.Config{Personality: machine.OpenBSD, Trace: tr}))
		}
		if c := ostest.GetpidCost(run); c > 0 {
			return c, nil
		}
		return 0, fmt.Errorf("core: getpid measurement failed (leg %d)", i)
	})
	if err != nil {
		return EmulatorResult{}, err
	}
	return EmulatorResult{Native: rs[1], Emulated: rs[0]}, nil
}

// The Section 7.2 copy: XCPFiles files of XCPFileSize bytes each,
// written interleaved so their blocks fragment on disk.
const (
	XCPFiles    = 8
	XCPFileSize = 400_000
)

// XCPResult is one Section 7.2 comparison: the same staged files
// copied by cp through the ExOS file descriptor layer and by XCP
// through XN and the disk directly.
type XCPResult struct {
	Cold bool // the sources were evicted to disk before the copy
	Cp   sim.Time
	XCP  sim.Time
}

// Speedup is how many times faster XCP copied than cp.
func (r XCPResult) Speedup() float64 { return float64(r.Cp) / float64(r.XCP) }

// XCP measures the Section 7.2 zero-touch copy, cp against XCP, first
// with the sources in core and then with them on disk. Each of the
// four copies runs on its own freshly staged machine, so each is a leg.
func (b *Bench) XCP() ([]XCPResult, error) {
	rs, err := runLegs(b, 4, func(i int, tr *trace.Tracer) (sim.Time, error) {
		return xcpCopy(i >= 2, i%2 == 1, tr)
	})
	if err != nil {
		return nil, err
	}
	return []XCPResult{{false, rs[0], rs[1]}, {true, rs[2], rs[3]}}, nil
}

// xcpCopy stages the source files on a fresh Xok/ExOS machine, evicts
// them from the cache when cold, and returns how long cp (or XCP, with
// useXCP) takes to copy them all.
func xcpCopy(cold, useXCP bool, tr *trace.Tracer) (sim.Time, error) {
	s := machine.MustNew(machine.Config{Personality: machine.XokExOS, Trace: tr}).(machine.Xok).S
	var err error
	fail := func(e error) bool {
		if e != nil && err == nil {
			err = e
		}
		return e != nil
	}
	pairs := make([][2]string, XCPFiles)
	s.Spawn("stage", 0, func(p unix.Proc) {
		fds := make([]unix.FD, XCPFiles)
		for i := range fds {
			pairs[i] = [2]string{fmt.Sprintf("/s%d", i), fmt.Sprintf("/d%d", i)}
			fd, e := p.Create(pairs[i][0], 6)
			if fail(e) {
				return
			}
			fds[i] = fd
		}
		chunk := make([]byte, sim.DiskBlockSize)
		for off := 0; off < XCPFileSize; off += len(chunk) {
			for _, fd := range fds {
				if _, e := p.Write(fd, chunk); fail(e) {
					return
				}
			}
		}
		for _, fd := range fds {
			fail(p.Close(fd))
		}
		fail(p.Sync())
	})
	s.Run()
	if cold {
		s.K.Spawn("evict", func(e *kernel.Env) {
			e.Creds = cap.UnixCreds(0)
			for {
				if _, ok := s.X.RecycleLRU(e); !ok {
					return
				}
			}
		})
		s.Run()
	}
	if err != nil {
		return 0, fmt.Errorf("core: xcp staging: %w", err)
	}

	start := s.Now()
	var end sim.Time
	if useXCP {
		s.K.Spawn("xcp", func(e *kernel.Env) {
			e.Creds = cap.UnixCreds(0)
			fail(apps.XCP(e, s.FS, pairs))
			end = s.Now()
		})
	} else {
		s.Spawn("cp", 0, func(p unix.Proc) {
			for _, pr := range pairs {
				if fail(apps.Cp(p, pr[0], pr[1])) {
					return
				}
			}
			end = p.Now()
		})
	}
	s.Run()
	if err != nil {
		return 0, fmt.Errorf("core: copy: %w", err)
	}
	return end - start, nil
}

// Figure3 measures HTTP throughput for all five servers across the
// document sizes of Figure 3 — 25 independent server×size cells.
func (b *Bench) Figure3(clients int, duration sim.Time) ([]httpd.Result, error) {
	if clients == 0 {
		clients = 24
	}
	if duration == 0 {
		duration = 300 * sim.Millisecond
	}
	kinds := httpd.Kinds()
	sizes := httpd.Figure3Sizes
	return runLegs(b, len(kinds)*len(sizes), func(i int, tr *trace.Tracer) (httpd.Result, error) {
		kind, size := kinds[i/len(sizes)], sizes[i%len(sizes)]
		r, err := httpd.Measure(kind, size, httpd.Opts{Clients: clients, Duration: duration, Trace: tr})
		if err != nil {
			return r, fmt.Errorf("%v@%d: %w", kind, size, err)
		}
		return r, nil
	})
}

// Cluster runs the topology-aware cluster cells — each cell boots its
// own fabric and machines, so cells are independent legs. Results and
// the merged latency digests are identical at every Parallel setting.
func (b *Bench) Cluster(cells []workload.ClusterConfig) ([]workload.ClusterResult, error) {
	return runLegs(b, len(cells), func(i int, tr *trace.Tracer) (workload.ClusterResult, error) {
		cfg := cells[i]
		cfg.Trace = tr
		return workload.Cluster(cfg)
	})
}

// GlobalSweep runs the Figure 4/5 cells on both Xok/ExOS and FreeBSD
// with the identical seed — 2×len(cells) legs. Row i of the result is
// {Xok/ExOS, FreeBSD} for cells[i].
func (b *Bench) GlobalSweep(pool []workload.JobKind, cells []GlobalCell, seed uint64) ([][2]workload.GlobalResult, error) {
	rs, err := runLegs(b, 2*len(cells), func(i int, tr *trace.Tracer) (workload.GlobalResult, error) {
		cell := cells[i/2]
		cfg := machine.Config{Personality: machine.XokExOS}
		if i%2 == 1 {
			cfg.Personality = machine.FreeBSD
		}
		cfg.Trace = tr
		return workload.GlobalPerf(machine.MustNew(cfg), pool, cell.TotalJobs, cell.MaxConc, seed)
	})
	if err != nil {
		return nil, err
	}
	out := make([][2]workload.GlobalResult, len(cells))
	for i := range cells {
		out[i] = [2]workload.GlobalResult{rs[2*i], rs[2*i+1]}
	}
	return out, nil
}
