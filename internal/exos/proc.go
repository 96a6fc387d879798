package exos

import (
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/unix"
)

// Proc is one UNIX process under ExOS: the shared unix.Process, whose
// calls run as library code in the process's own environment, plus
// the ExOS-only calls (signals).
type Proc struct {
	*unix.Process
	s *System
}

// libOS is ExOS's half of the UNIX process layer (unix.OS): library
// calls instead of traps, shared-state protection, the mount table,
// pipes over software regions, and the page-table-scanning fork.
type libOS System

// Charge bills a call's fixed cost. Most calls are library code whose
// work the C-FFS library and XN charge themselves.
func (o *libOS) Charge(e *kernel.Env, op unix.Op) {
	switch op {
	case unix.OpGetpid:
		// A protected procedure call into the library, no kernel
		// crossing (Section 7.1: 100 cycles vs 270 on OpenBSD).
		e.LibCall(sim.CostGetpidWork)
	case unix.OpSeek:
		e.LibCall(20)
	case unix.OpWait:
		e.Syscall(200)
	}
}

// SharedWrite accounts one write to shared global state: with Protect
// on, three system calls precede it (Section 6.3).
func (o *libOS) SharedWrite(e *kernel.Env) {
	if o.Cfg.Protect {
		o.K.Stats.Add(sim.CtrProtCalls, 3)
		e.Syscalls(3)
	}
}

// NewPipe builds a pipe at the configured trust level.
func (o *libOS) NewPipe(e *kernel.Env, count *int64) unix.PipeOS {
	return newPipe(e, o.Cfg.SharedMemPipes, count)
}

// Fork charges ExOS fork: it scans the page table marking pages
// copy-on-write through batched system calls (~6 ms, Section 6.2),
// and exec overlays a demand-loaded image.
func (o *libOS) Fork(e *kernel.Env) int {
	// Batched PTE updates: a handful of traps cover the scan.
	e.Syscalls(8)
	e.Use(sim.CostForkExOS + sim.CostExec)
	pid := o.nextPid
	o.nextPid++
	return pid
}

// Enter enters the process into the shared process map. A forked
// child first takes its early COW faults (stack/data pages the fork
// call itself was using were already copied eagerly).
func (o *libOS) Enter(p *unix.Process, forked bool) unix.Proc {
	if forked {
		p.Env().Use(4 * sim.CostCOWFault)
	}
	ep := &Proc{Process: p, s: (*System)(o)}
	o.procs[p.PID()] = ep
	return ep
}

// Exit removes the process from the process map.
func (o *libOS) Exit(p *unix.Process) { delete(o.procs, p.PID()) }
