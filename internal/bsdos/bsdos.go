// Package bsdos models the two monolithic 4.4BSD systems the paper
// compares against (FreeBSD 2.2.2 and OpenBSD 2.1), plus the
// OpenBSD/C-FFS variant (Costa Sapuntzakis's in-kernel port of C-FFS,
// Section 6).
//
// The same application programs run here as on ExOS, but every UNIX
// call is a kernel trap, and the file systems run inside the kernel:
//
//   - FreeBSD: native FFS (split inodes, no co-location, synchronous
//     metadata writes) with a unified buffer cache spanning memory;
//   - OpenBSD: native FFS with a small, non-unified buffer cache —
//     the property the paper credits for FreeBSD beating OpenBSD
//     under load (Section 8);
//   - OpenBSD/C-FFS: the C-FFS structural policies inside the OpenBSD
//     kernel.
//
// The block-bookkeeping substrate is shared with the exokernel build
// (internal/xn in FreeCost mode): here it stands in for ordinary
// in-kernel file system code, with no protection-boundary charging.
// What differs from Xok/ExOS is exactly what differed in the paper:
// kernel crossings on every call, in-kernel pipe machinery, FFS
// structure, and buffer cache architecture. The UNIX semantics are
// unix.Process, the same code ExOS runs; this package supplies only
// the trap costs, the kernel pipe and fork's charges (unix.OS).
package bsdos

import (
	"fmt"

	"xok/internal/cap"
	"xok/internal/cffs"
	"xok/internal/fault"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/unix"
	"xok/internal/xn"
)

// Variant selects the modelled system.
type Variant int

// The three BSD configurations from the paper's evaluation.
const (
	FreeBSD Variant = iota
	OpenBSD
	OpenBSDCFFS
)

// String names the variant as the paper does.
func (v Variant) String() string {
	switch v {
	case FreeBSD:
		return "FreeBSD"
	case OpenBSD:
		return "OpenBSD"
	case OpenBSDCFFS:
		return "OpenBSD/C-FFS"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// openBSDCachePages is the small, non-unified buffer cache (OpenBSD
// 2.1 dedicated only a fixed few-MB buffer cache to file data, unlike
// FreeBSD's unified page cache — the difference Section 8 credits for
// FreeBSD beating OpenBSD under load).
const openBSDCachePages = 800

// Config sizes the machine.
type Config struct {
	DiskBlocks int64
	MemPages   int

	// Trace and Faults are handed straight to the kernel: the
	// observability sink and the deterministic fault plan (both nil by
	// default).
	Trace  *trace.Tracer
	Faults *fault.Plan

	// Eng attaches the machine to a shared event engine (nil = build a
	// private one); see kernel.Config.Eng.
	Eng *sim.Engine
}

// System is one booted BSD machine.
type System struct {
	K       *kernel.Kernel
	X       *xn.XN
	FS      *cffs.FS
	Variant Variant

	// FSCfg is the structural profile the file system was formatted
	// with (FFS or C-FFS), kept for forensic remounts (cffs.AuditImage
	// needs the same profile to re-attach the image).
	FSCfg cffs.Config

	nextPid int
}

// Boot builds the machine and formats its file system.
func Boot(v Variant, cfg Config) *System {
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 1 << 20
	}
	if cfg.MemPages == 0 {
		cfg.MemPages = 16384
	}
	k := kernel.New(kernel.Config{
		Name:     v.String(),
		TrapCost: sim.CostTrapBSD,
		MemPages: cfg.MemPages,
		DiskSize: cfg.DiskBlocks,
		Trace:    cfg.Trace,
		Faults:   cfg.Faults,
		Eng:      cfg.Eng,
	})
	x := xn.New(k)
	x.FreeCost = true   // in-kernel FS: no protection-boundary charging
	x.FlushBehind = 512 // the update daemon keeps dirty data bounded
	if v == OpenBSD || v == OpenBSDCFFS {
		x.MaxCachePages = openBSDCachePages
	}
	fsCfg := cffs.FFSConfig()
	if v == OpenBSDCFFS {
		fsCfg = cffs.DefaultConfig()
	}
	s := &System{K: k, X: x, Variant: v, FSCfg: fsCfg, nextPid: 1}
	k.Spawn("bsd-mkfs", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		fs, err := cffs.Mkfs(e, x, "ffs", fsCfg)
		if err != nil {
			panic("bsdos: mkfs failed: " + err.Error())
		}
		s.FS = fs
	})
	k.Run()
	return s
}

// Run drains the machine.
func (s *System) Run() { s.K.Run() }

// Now returns virtual time.
func (s *System) Now() sim.Time { return s.K.Now() }

// Stats exposes the machine counters.
func (s *System) Stats() *sim.Stats { return s.K.Stats }

// Spawn starts a top-level UNIX process.
func (s *System) Spawn(name string, uid uint16, main func(unix.Proc)) *unix.Started {
	pid := s.nextPid
	s.nextPid++
	return unix.Launch(s.K, (*kernelOS)(s), name, pid, uid, main)
}

// kernelOS is the BSD half of the UNIX process layer (unix.OS): every
// call traps, the file system runs in the kernel, and pipes are kernel
// objects.
type kernelOS System

// trapWork is each call's in-kernel work beyond the trap itself.
var trapWork = [...]sim.Time{
	unix.OpGetpid:  sim.CostGetpidWork, // 270 cycles on OpenBSD, Section 7.1
	unix.OpOpen:    400,                // trap + namei
	unix.OpCreate:  600,
	unix.OpRead:    150, // copies through the kernel buffer cache
	unix.OpWrite:   150,
	unix.OpSeek:    80,
	unix.OpClose:   100,
	unix.OpStat:    300,
	unix.OpMkdir:   600,
	unix.OpReaddir: 400, // getdents
	unix.OpUnlink:  500,
	unix.OpRmdir:   500,
	unix.OpRename:  600,
	unix.OpChmod:   500,
	unix.OpSymlink: 600,
	unix.OpSync:    200,
	unix.OpPipe:    800, // allocates the kernel pipe object
	unix.OpWait:    200,
}

// Charge traps into the kernel.
func (o *kernelOS) Charge(e *kernel.Env, op unix.Op) { e.Syscall(trapWork[op]) }

// SharedWrite is free: the descriptor table is kernel memory.
func (o *kernelOS) SharedWrite(*kernel.Env) {}

// Resolve: one file system, no mount table.
func (o *kernelOS) Resolve(path string) (*cffs.FS, string) { return o.FS, path }

// NewPipe allocates the in-kernel pipe buffer.
func (o *kernelOS) NewPipe(*kernel.Env, *int64) unix.PipeOS {
	return &kernelPipe{buf: make([]byte, unix.PipeCapacity)}
}

// Fork is fork+exec: "less than one millisecond on OpenBSD"
// (Section 6.2) plus the exec overlay.
func (o *kernelOS) Fork(e *kernel.Env) int {
	e.Syscall(0)
	e.Use(sim.CostForkBSD + sim.CostExec)
	pid := o.nextPid
	o.nextPid++
	return pid
}

// Enter needs no setup: the process is the shared one.
func (o *kernelOS) Enter(p *unix.Process, _ bool) unix.Proc { return p }

// Exit needs no cleanup.
func (o *kernelOS) Exit(*unix.Process) {}
