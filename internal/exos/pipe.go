package exos

import (
	"xok/internal/cap"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/unix"
	"xok/internal/wkpred"
)

// Pipes (Section 5.2.1): "implemented using Xok's software regions,
// coupled with a 'directed yield' to the other party when it is
// required to do work (i.e., if the queue is full or empty)".
//
// Two trust levels exist, matching Table 2:
//
//   - shared-memory (mutual trust): the ring buffer lives in memory
//     both processes map; transfers are bare copies.
//   - protected: the ring lives in a software region, so every data
//     movement is a system call, and — gratuitously, as the paper
//     notes — a wakeup predicate is installed on every read.
//
// Both use directed yields for the handoff.

// pipe is the ExOS data path of a unix.Pipe.
type pipe struct {
	shared bool

	buf    []byte // shared-memory variant storage
	region kernel.RegionID

	pred *wkpred.Pred // watches the pipe's byte count
}

func newPipe(e *kernel.Env, shared bool, count *int64) *pipe {
	p := &pipe{shared: shared}
	if shared {
		p.buf = make([]byte, unix.PipeCapacity)
		e.LibCall(sim.CopyCost(64)) // set up the shared mapping
	} else {
		p.region = e.RegionCreate(unix.PipeCapacity, cap.Root(true))
		pr, err := wkpred.Compile(wkpred.Cmp(wkpred.GT, wkpred.Load(count), wkpred.Const(0)))
		if err != nil {
			panic("exos: pipe predicate: " + err.Error())
		}
		p.pred = pr
	}
	return p
}

// Enter charges the library call; a protected read also "installs a
// wakeup predicate on every read (something unnecessary even with
// mutual distrust)" — the gratuitous protection Table 2 measures. Each
// install compiles the predicate and pre-translates its addresses.
func (p *pipe) Enter(e *kernel.Env, write bool) {
	e.LibCall(60)
	if !write && !p.shared {
		e.Syscall(sim.CostPredicateDownload)
	}
}

// Move copies one span at a time, through the region in protected
// mode.
func (p *pipe) Move(e *kernel.Env, off int, data []byte, write bool) {
	unix.EachSpan(off, data, func(off int, span []byte) {
		if p.shared {
			if write {
				copy(p.buf[off:], span)
			} else {
				copy(span, p.buf[off:])
			}
			e.Use(sim.CopyCost(len(span)))
			e.Kernel().Stats.Add(sim.CtrBytesCopied, int64(len(span)))
			return
		}
		e.Use(sim.CostRegionCheck)
		var err error
		if write {
			err = e.RegionWrite(p.region, off, span)
		} else {
			err = e.RegionRead(p.region, off, span)
		}
		if err != nil {
			panic("exos: pipe region access: " + err.Error())
		}
	})
}

// Wait yields directly to a waiting peer. With none, a protected
// reader sleeps on the predicate (the writer's yield makes the
// dispatch pass that re-evaluates it); anyone else blocks.
func (p *pipe) Wait(e, peer *kernel.Env, write bool) {
	switch {
	case peer != nil:
		e.YieldTo(peer)
	case !write && !p.shared:
		e.SleepOn(p.pred, 0)
	default:
		e.Block()
	}
}

// Wake yields to a reader that now has data, and wakes a writer that
// now has room.
func (p *pipe) Wake(e, peer *kernel.Env, write bool) {
	if write {
		e.YieldTo(peer)
	} else {
		e.Kernel().Wake(peer)
	}
}
