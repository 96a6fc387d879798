package kernel

import (
	"sync/atomic"

	"xok/internal/sim"
)

// token is an event engine's execution token, shared by every kernel
// attached to the engine: one per engine rather than one global,
// because the parallel harness runs independent engines concurrently.
// Exactly one goroutine holds it — the Run caller or one environment —
// and only the holder touches the engine and the kernels on it. Each
// handoff is a channel send that the receive taking the token
// completes after, which orders the two goroutines' accesses for the
// race detector.
type token struct {
	holder   *Env          // environment goroutine holding the token; nil = the Run caller
	next     *Env          // resume target recorded by the callback running on holder
	host     chan struct{} // the Run caller waits here while an environment holds the token
	switches int64         // handoffs not yet published to switchMeter
}

// tokenOf returns eng's token, creating it for the first kernel built
// on the engine.
func tokenOf(eng *sim.Engine) *token {
	if t, ok := eng.Owner().(*token); ok {
		return t
	}
	t := &token{host: make(chan struct{}, 1)} // see handTo
	eng.SetOwner(t)
	return t
}

// handTo passes the token to e's goroutine, which receives it on
// e.resume. The caller must not touch simulation state afterwards
// until the token comes back to it.
//
// e.resume and host hold one value, because the receiver may not be
// waiting yet: a fresh environment's goroutine that has not started,
// or a Run caller or environment that has just handed the token on
// and not yet reached its own receive when the token comes back. An
// unbuffered send would block the giver there, and the receiver,
// running on without blocking, would leave it runnable behind the
// handoff chain until the Go scheduler preempted someone. A giver that
// was exiting then held its stack and machine for that long: harness
// runs showed about a hundred such goroutines at once. Only the token
// moves through these channels, so one slot never overflows.
func (t *token) handTo(e *Env) {
	t.holder = e
	t.switches++
	e.resume <- true
}

// park gives the token up from e's goroutine after e left the CPU (or
// charged cycles that need an event). It runs the engine's event loop
// right here until a callback names the environment to run next: if
// that is e, park returns straight into e's code, with no goroutine
// switch; otherwise it hands the token to that environment's goroutine
// and blocks until e is resumed. Once nothing is due before the
// horizon of the Run in progress, the Run caller gets the token back.
// An exited e returns as soon as the token has moved on.
//
// Event callbacks therefore run on environment goroutines too, and a
// panic in one unwinds that goroutine instead of the Run caller's.
func (e *Env) park() {
	t := e.k.tok
	dead := e.state == envDead
	for {
		if !e.k.Eng.StepDue() {
			t.holder = nil
			t.switches++
			t.host <- struct{}{}
			break
		}
		if n := t.next; n != nil {
			t.next = nil
			if n == e {
				return
			}
			t.handTo(n)
			break
		}
	}
	if dead {
		return
	}
	if !<-e.resume {
		panic(errKilled)
	}
}

// switchMeter counts token handoffs between goroutines, process-wide.
// Tokens batch their count and publish it when the Run caller gets the
// token back, one atomic add per handback, the way engines batch the
// sim meters.
var switchMeter atomic.Int64

// GoroutineSwitches returns the total token handoffs between
// goroutines (Run caller to environment, environment to environment,
// environment back to the Run caller) made by every engine in this
// process so far. Safe to call from any goroutine; only deltas are
// meaningful.
func GoroutineSwitches() int64 { return switchMeter.Load() }
