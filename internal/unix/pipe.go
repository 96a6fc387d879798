package unix

import "xok/internal/kernel"

// PipeOS is a personality's half of a pipe: where the bytes live, what
// moving them costs, and how a blocked end hands the CPU to its peer.
// Pipe calls it at fixed points and owns the ring positions, the
// blocking protocol and the end accounting.
type PipeOS interface {
	// Enter bills one read or write call on the pipe, before it
	// touches the ring.
	Enter(e *kernel.Env, write bool)
	// Move copies data into the ring (write) or the ring into data
	// (read), starting at ring offset off; the span may wrap (see
	// EachSpan).
	Move(e *kernel.Env, off int, data []byte, write bool)
	// Wait blocks e, whose end cannot progress, until its peer has
	// worked. peer is the other end's waiting environment, or nil.
	Wait(e, peer *kernel.Env, write bool)
	// Wake hands off to peer, waiting on the other end, after a
	// transfer gave it work.
	Wake(e, peer *kernel.Env, write bool)
}

// Pipe is a pipe of PipeCapacity bytes shared by its descriptors.
// Fork shares ends, so EOF and EPIPE only fire when the last
// descriptor of an end closes.
type Pipe struct {
	os PipeOS

	count      int64 // bytes buffered
	rpos, wpos int

	readerWaiting *kernel.Env
	writerWaiting *kernel.Env
	readers       int
	writers       int
}

// EachSpan calls f for the contiguous pieces of a transfer of data at
// ring offset off: one piece, or two when it wraps past the end of the
// PipeCapacity-byte ring.
func EachSpan(off int, data []byte, f func(off int, span []byte)) {
	for len(data) > 0 {
		n := len(data)
		if off+n > PipeCapacity {
			n = PipeCapacity - off
		}
		f(off, data[:n])
		off = (off + n) % PipeCapacity
		data = data[n:]
	}
}

// write sends data, blocking while the ring is full.
func (p *Pipe) write(e *kernel.Env, data []byte) (int, error) {
	p.os.Enter(e, true)
	n := 0
	for n < len(data) {
		if p.readers == 0 {
			return n, ErrPipe
		}
		space := PipeCapacity - int(p.count)
		if space == 0 {
			// Ring full: the reader must do work.
			p.writerWaiting = e
			r := p.readerWaiting
			p.readerWaiting = nil
			p.os.Wait(e, r, true)
			continue
		}
		chunk := min(len(data)-n, space)
		p.os.Move(e, p.wpos, data[n:n+chunk], true)
		p.wpos = (p.wpos + chunk) % PipeCapacity
		p.count += int64(chunk)
		n += chunk
	}
	if r := p.readerWaiting; r != nil && p.count > 0 {
		p.readerWaiting = nil
		p.os.Wake(e, r, true)
	}
	return n, nil
}

// read receives up to len(buf) bytes; it returns 0, nil at EOF.
func (p *Pipe) read(e *kernel.Env, buf []byte) (int, error) {
	p.os.Enter(e, false)
	for p.count == 0 {
		if p.writers == 0 {
			return 0, nil // EOF
		}
		p.readerWaiting = e
		w := p.writerWaiting
		p.writerWaiting = nil
		p.os.Wait(e, w, false)
	}
	chunk := min(len(buf), int(p.count))
	p.os.Move(e, p.rpos, buf[:chunk], false)
	p.rpos = (p.rpos + chunk) % PipeCapacity
	p.count -= int64(chunk)
	if w := p.writerWaiting; w != nil {
		p.writerWaiting = nil
		p.os.Wake(e, w, false)
	}
	return chunk, nil
}

// addRef notes a forked descriptor sharing one end.
func (p *Pipe) addRef(writeEnd bool) {
	if writeEnd {
		p.writers++
	} else {
		p.readers++
	}
}

// closeEnd releases one descriptor of an end; when the last one goes,
// a peer blocked on the other end wakes (EOF or EPIPE).
func (p *Pipe) closeEnd(e *kernel.Env, writeEnd bool) {
	if writeEnd {
		if p.writers > 0 {
			p.writers--
		}
		if r := p.readerWaiting; r != nil && p.writers == 0 {
			p.readerWaiting = nil
			e.Kernel().Wake(r)
		}
	} else {
		if p.readers > 0 {
			p.readers--
		}
		if w := p.writerWaiting; w != nil && p.readers == 0 {
			p.writerWaiting = nil
			e.Kernel().Wake(w)
		}
	}
}
