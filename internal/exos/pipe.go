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

// ErrPipeClosed reports a write to a pipe with no reader (the
// canonical unix.ErrPipe, shared across personalities).
var ErrPipeClosed = unix.ErrPipe

type pipe struct {
	s      *System
	shared bool

	buf    []byte // shared-memory variant storage
	region kernel.RegionID

	count      int64 // bytes buffered; watched by wakeup predicates
	rpos, wpos int

	readerWaiting *kernel.Env
	writerWaiting *kernel.Env

	// Open-descriptor counts per end (fork shares ends, so EOF and
	// EPIPE only fire when the last descriptor of an end closes).
	readers int
	writers int

	pred *wkpred.Pred
}

func (p *pipe) rClosed() bool { return p.readers == 0 }
func (p *pipe) wClosed() bool { return p.writers == 0 }

func newPipe(s *System, e *kernel.Env, shared bool) *pipe {
	p := &pipe{s: s, shared: shared, readers: 1, writers: 1}
	if shared {
		p.buf = make([]byte, unix.PipeCapacity)
		e.LibCall(sim.CopyCost(64)) // set up the shared mapping
	} else {
		p.region = e.RegionCreate(unix.PipeCapacity, cap.Root(true))
		pr, err := wkpred.Compile(wkpred.Cmp(wkpred.GT, wkpred.Load(&p.count), wkpred.Const(0)))
		if err != nil {
			panic("exos: pipe predicate: " + err.Error())
		}
		p.pred = pr
	}
	return p
}

// moveIn copies src into the ring at wpos (through the region in
// protected mode), advancing wpos.
func (p *pipe) moveIn(e *kernel.Env, src []byte) {
	for len(src) > 0 {
		seg := len(src)
		if p.wpos+seg > unix.PipeCapacity {
			seg = unix.PipeCapacity - p.wpos
		}
		if p.shared {
			copy(p.buf[p.wpos:], src[:seg])
			e.Use(sim.CopyCost(seg))
			p.s.K.Stats.Add(sim.CtrBytesCopied, int64(seg))
		} else {
			e.Use(sim.CostRegionCheck)
			if err := e.RegionWrite(p.region, p.wpos, src[:seg]); err != nil {
				panic("exos: pipe region write: " + err.Error())
			}
		}
		p.wpos = (p.wpos + seg) % unix.PipeCapacity
		src = src[seg:]
	}
}

// moveOut copies from the ring at rpos into dst, advancing rpos.
func (p *pipe) moveOut(e *kernel.Env, dst []byte) {
	for len(dst) > 0 {
		seg := len(dst)
		if p.rpos+seg > unix.PipeCapacity {
			seg = unix.PipeCapacity - p.rpos
		}
		if p.shared {
			copy(dst[:seg], p.buf[p.rpos:])
			e.Use(sim.CopyCost(seg))
			p.s.K.Stats.Add(sim.CtrBytesCopied, int64(seg))
		} else {
			e.Use(sim.CostRegionCheck)
			if err := e.RegionRead(p.region, p.rpos, dst[:seg]); err != nil {
				panic("exos: pipe region read: " + err.Error())
			}
		}
		p.rpos = (p.rpos + seg) % unix.PipeCapacity
		dst = dst[seg:]
	}
}

// write sends data, blocking (with directed yields to the reader) when
// the queue fills.
func (p *pipe) write(e *kernel.Env, data []byte) (int, error) {
	e.LibCall(60)
	n := 0
	for n < len(data) {
		if p.rClosed() {
			return n, ErrPipeClosed
		}
		space := unix.PipeCapacity - int(p.count)
		if space == 0 {
			// Queue full: the reader must do work — yield to it, or
			// block until a read drains the queue.
			p.writerWaiting = e
			if r := p.readerWaiting; r != nil {
				p.readerWaiting = nil
				e.YieldTo(r)
			} else {
				e.Block()
			}
			continue
		}
		chunk := len(data) - n
		if chunk > space {
			chunk = space
		}
		p.moveIn(e, data[n:n+chunk])
		p.count += int64(chunk)
		n += chunk
	}
	if r := p.readerWaiting; r != nil && p.count > 0 {
		p.readerWaiting = nil
		e.YieldTo(r)
	}
	return n, nil
}

// read receives up to len(buf) bytes; returns 0, nil at EOF.
func (p *pipe) read(e *kernel.Env, buf []byte) (int, error) {
	e.LibCall(60)
	if !p.shared {
		// "...installs a wakeup predicate on every read (something
		// unnecessary even with mutual distrust)" — the gratuitous
		// protection Table 2 measures. Each install compiles the
		// predicate and pre-translates its addresses.
		e.Syscall(sim.CostPredicateDownload)
	}
	for p.count == 0 {
		if p.wClosed() {
			return 0, nil // EOF
		}
		p.readerWaiting = e
		w := p.writerWaiting
		p.writerWaiting = nil
		if !p.shared {
			// Sleep on the predicate; the writer's yield makes the
			// dispatch pass that re-evaluates it.
			if w != nil {
				e.YieldTo(w)
			} else {
				e.SleepOn(p.pred, 0)
			}
		} else if w != nil {
			e.YieldTo(w)
		} else {
			e.Block()
		}
	}
	chunk := len(buf)
	if int64(chunk) > p.count {
		chunk = int(p.count)
	}
	p.moveOut(e, buf[:chunk])
	p.count -= int64(chunk)
	if w := p.writerWaiting; w != nil {
		p.writerWaiting = nil
		p.s.K.Wake(w)
	}
	return chunk, nil
}

// closeEnd releases one descriptor of an end; when the last one goes,
// any peer blocked on that end wakes (EOF / EPIPE).
func (p *pipe) closeEnd(e *kernel.Env, writeEnd bool) {
	if writeEnd {
		if p.writers > 0 {
			p.writers--
		}
		if p.wClosed() {
			if r := p.readerWaiting; r != nil {
				p.readerWaiting = nil
				p.s.K.Wake(r)
			}
		}
	} else {
		if p.readers > 0 {
			p.readers--
		}
		if p.rClosed() {
			if w := p.writerWaiting; w != nil {
				p.writerWaiting = nil
				p.s.K.Wake(w)
			}
		}
	}
}

// addRef notes a forked descriptor sharing this end.
func (p *pipe) addRef(writeEnd bool) {
	if writeEnd {
		p.writers++
	} else {
		p.readers++
	}
}
