package bsdos

import (
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/unix"
)

// costPipeWakeup is the tsleep/wakeup + scheduler-queue overhead per
// blocking handoff, beyond the generic context switch.
const costPipeWakeup = 8 * sim.Microsecond

// kernelPipe is the in-kernel 4.4BSD pipe: every transfer is a system
// call that copies between the user buffer and a kernel buffer, and
// blocking goes through the kernel sleep queue (tsleep/wakeup), which
// costs a full reschedule. Table 2 reports 34 us / 160 us for the 1-B
// and 8-KB latencies on OpenBSD.
type kernelPipe struct{ buf []byte }

// Enter is free: the read or write trap already paid.
func (p *kernelPipe) Enter(*kernel.Env, bool) {}

// Move copies between the user buffer and the kernel buffer.
func (p *kernelPipe) Move(e *kernel.Env, off int, data []byte, write bool) {
	unix.EachSpan(off, data, func(off int, span []byte) {
		if write {
			copy(p.buf[off:], span)
		} else {
			copy(span, p.buf[off:])
		}
	})
	e.Use(sim.CopyCost(len(data)))
	e.Kernel().Stats.Add(sim.CtrBytesCopied, int64(len(data)))
}

// Wait sleeps in the kernel after waking the peer.
func (p *kernelPipe) Wait(e, peer *kernel.Env, _ bool) {
	e.Use(costPipeWakeup)
	if peer != nil {
		e.Kernel().Wake(peer)
	}
	e.Block()
}

// Wake wakes the peer through the sleep queue.
func (p *kernelPipe) Wake(e, peer *kernel.Env, _ bool) {
	e.Use(costPipeWakeup)
	e.Kernel().Wake(peer)
}
