// Package exos implements ExOS 1.0, the default library operating
// system for Xok (Section 5.2): a UNIX personality implemented
// entirely as unprivileged library code linked into each application.
//
// Structure mirrors the paper:
//
//   - files go through the C-FFS libFS over XN;
//   - the file descriptor table and process map are shared global
//     state; with Protect set, every write to them is preceded by
//     three system calls, approximating the cost of the fully
//     protected implementation (Section 6.3 — all Section 6 and 8
//     measurements include this cost);
//   - pipes use software regions plus a directed yield (Section
//     5.2.1), with a gratuitous wakeup predicate on every read — the
//     configuration Table 2 calls "Protection"; a mutual-trust
//     shared-memory variant is also provided ("Shared memory");
//   - fork marks pages copy-on-write by scanning the page table with
//     batched system calls and costs ~6 ms (Section 6.2); exec
//     overlays a demand-loaded image.
//
// The UNIX semantics themselves (descriptors, offsets, pipe ends, fork
// inheritance, exit cleanup) are unix.Process, shared with the BSD
// models; this package supplies the ExOS costs and mechanisms above
// through unix.OS and unix.PipeOS.
package exos

import (
	"xok/internal/cap"
	"xok/internal/cffs"
	"xok/internal/fault"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/unix"
	"xok/internal/xn"
)

// Config selects ExOS build options.
type Config struct {
	// Protect charges three system calls before every write to shared
	// global state (fd table, process map, ...). The paper's reported
	// numbers all include this; Section 6.3 measures the system with
	// it (and XN) removed.
	Protect bool

	// SharedMemPipes selects the mutual-trust pipe implementation
	// (Table 2 "Shared memory") instead of software regions +
	// wakeup predicates (Table 2 "Protection").
	SharedMemPipes bool

	// DiskBlocks sizes the volume (default 1<<20 blocks = 4 GB).
	DiskBlocks int64

	// MemPages sizes physical memory (default 16384 pages = 64 MB).
	MemPages int

	// Trace and Faults are handed straight to the kernel: the
	// observability sink and the deterministic fault plan (both nil by
	// default, costing one nil check per decision point).
	Trace  *trace.Tracer
	Faults *fault.Plan

	// Eng attaches the machine to a shared event engine (nil = build a
	// private one); see kernel.Config.Eng.
	Eng *sim.Engine
}

// System is one booted Xok/ExOS machine.
type System struct {
	K   *kernel.Kernel
	X   *xn.XN
	FS  *cffs.FS
	Cfg Config

	nextPid int
	// The shared process map (pid -> environment), one of the tables
	// kept in shared memory (Section 5.2.1).
	procs map[int]*Proc

	// mounts is the shared mount table (Section 5.2.1), longest
	// prefix first.
	mounts []mount
}

// Boot builds the machine: Xok kernel, XN, and a fresh C-FFS volume,
// ready to spawn UNIX processes.
func Boot(cfg Config) *System {
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 1 << 20
	}
	if cfg.MemPages == 0 {
		cfg.MemPages = 16384
	}
	k := kernel.New(kernel.Config{
		Name:     "xok",
		TrapCost: sim.CostTrapXok,
		MemPages: cfg.MemPages,
		DiskSize: cfg.DiskBlocks,
		Trace:    cfg.Trace,
		Faults:   cfg.Faults,
		Eng:      cfg.Eng,
	})
	x := xn.New(k)
	x.FlushBehind = 512 // C-FFS flush-behind: ~2 MB of dirty data max
	s := &System{K: k, X: x, Cfg: cfg, nextPid: 1, procs: make(map[int]*Proc)}
	k.Spawn("exos-mkfs", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		fs, err := cffs.Mkfs(e, x, "cffs", cffs.DefaultConfig())
		if err != nil {
			panic("exos: mkfs failed: " + err.Error())
		}
		s.FS = fs
	})
	k.Run()
	return s
}

// Run drains the machine's event queue.
func (s *System) Run() { s.K.Run() }

// Now returns virtual time.
func (s *System) Now() sim.Time { return s.K.Now() }

// Stats exposes the machine counters.
func (s *System) Stats() *sim.Stats { return s.K.Stats }

// Spawn starts a top-level UNIX process running main as uid. The
// returned handle's Env is for waiting from inside another process;
// from the outside, call Run to drain the machine.
func (s *System) Spawn(name string, uid uint16, main func(unix.Proc)) *unix.Started {
	pid := s.nextPid
	s.nextPid++
	return unix.Launch(s.K, (*libOS)(s), name, pid, uid, main)
}
