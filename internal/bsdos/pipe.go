package bsdos

import (
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/unix"
)

// costPipeWakeup is the tsleep/wakeup + scheduler-queue overhead per
// blocking handoff, beyond the generic context switch.
const costPipeWakeup = 8 * sim.Microsecond

// ErrPipeClosed reports a write with no reader (the canonical
// unix.ErrPipe, shared across personalities).
var ErrPipeClosed = unix.ErrPipe

// bsdPipe is the in-kernel 4.4BSD pipe: every transfer is a system
// call that copies between the user buffer and a kernel buffer, and
// blocking goes through the kernel sleep queue (tsleep/wakeup), which
// costs a full reschedule. Table 2 reports 34 us / 160 us for the 1-B
// and 8-KB latencies on OpenBSD.
type bsdPipe struct {
	s *System

	buf        []byte
	count      int64
	rpos, wpos int

	readerWaiting *kernel.Env
	writerWaiting *kernel.Env
	readers       int
	writers       int
}

func (p *bsdPipe) rClosed() bool { return p.readers == 0 }
func (p *bsdPipe) wClosed() bool { return p.writers == 0 }

// addRef notes a forked descriptor sharing this end.
func (p *bsdPipe) addRef(writeEnd bool) {
	if writeEnd {
		p.writers++
	} else {
		p.readers++
	}
}

func (p *bsdPipe) moveBytes(e *kernel.Env, n int) {
	e.Use(sim.CopyCost(n))
	p.s.K.Stats.Add(sim.CtrBytesCopied, int64(n))
}

func (p *bsdPipe) write(e *kernel.Env, data []byte) (int, error) {
	n := 0
	for n < len(data) {
		if p.rClosed() {
			return n, ErrPipeClosed
		}
		space := unix.PipeCapacity - int(p.count)
		if space == 0 {
			p.writerWaiting = e
			e.Use(costPipeWakeup)
			if r := p.readerWaiting; r != nil {
				p.readerWaiting = nil
				p.s.K.Wake(r)
			}
			e.Block()
			continue
		}
		chunk := len(data) - n
		if chunk > space {
			chunk = space
		}
		// Copy user -> kernel buffer.
		for c := chunk; c > 0; {
			seg := c
			if p.wpos+seg > unix.PipeCapacity {
				seg = unix.PipeCapacity - p.wpos
			}
			copy(p.buf[p.wpos:], data[n:n+seg])
			p.wpos = (p.wpos + seg) % unix.PipeCapacity
			c -= seg
			n += seg
		}
		p.moveBytes(e, chunk)
		p.count += int64(chunk)
	}
	if r := p.readerWaiting; r != nil && p.count > 0 {
		p.readerWaiting = nil
		e.Use(costPipeWakeup)
		p.s.K.Wake(r)
	}
	return n, nil
}

func (p *bsdPipe) read(e *kernel.Env, buf []byte) (int, error) {
	for p.count == 0 {
		if p.wClosed() {
			return 0, nil
		}
		p.readerWaiting = e
		e.Use(costPipeWakeup)
		if w := p.writerWaiting; w != nil {
			p.writerWaiting = nil
			p.s.K.Wake(w)
		}
		e.Block()
	}
	chunk := len(buf)
	if int64(chunk) > p.count {
		chunk = int(p.count)
	}
	// Copy kernel buffer -> user.
	for c, off := chunk, 0; c > 0; {
		seg := c
		if p.rpos+seg > unix.PipeCapacity {
			seg = unix.PipeCapacity - p.rpos
		}
		copy(buf[off:off+seg], p.buf[p.rpos:])
		p.rpos = (p.rpos + seg) % unix.PipeCapacity
		c -= seg
		off += seg
	}
	p.moveBytes(e, chunk)
	p.count -= int64(chunk)
	if w := p.writerWaiting; w != nil {
		p.writerWaiting = nil
		e.Use(costPipeWakeup)
		p.s.K.Wake(w)
	}
	return chunk, nil
}

func (p *bsdPipe) closeEnd(e *kernel.Env, writeEnd bool) {
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
