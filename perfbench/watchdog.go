package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memSample reads the heap occupied by objects, live or not yet swept
// (what an overloaded backlog grows), and the resident estimate: all
// memory the Go runtime has mapped minus heap pages it returned to the
// operating system.
func memSample() (heap, resident uint64) {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64() - s[2].Value.Uint64()
}

// memWatch samples memory from its own goroutine. It is the run's heap
// guard: once the heap passes the ceiling it calls trip, once, from
// the sampling goroutine. A simulation cannot be interrupted mid-run,
// so trip is expected to end the process; if it returns, sampling
// stops. It also keeps the peak resident estimate since the last
// reset.
type memWatch struct {
	mu       sync.Mutex
	peak     uint64 // resident peak since the last reset, under mu
	heapPeak uint64 // owned by the sampling goroutine until exited
	done     chan struct{}
	exited   chan struct{}
}

func watchMemory(ceiling uint64, interval time.Duration, trip func(heap uint64)) *memWatch {
	w := &memWatch{done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(w.exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			// Sampling under mu keeps a sample taken before a reset
			// from landing in the interval after it.
			w.mu.Lock()
			heap, res := memSample()
			w.peak = max(w.peak, res)
			w.mu.Unlock()
			w.heapPeak = max(w.heapPeak, heap)
			if heap > ceiling {
				trip(heap)
				<-w.done
				return
			}
			select {
			case <-w.done:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// reset starts a new peak interval at the present resident estimate,
// and returns it.
func (w *memWatch) reset() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, w.peak = memSample()
	return w.peak
}

// takePeak returns the highest resident estimate since the last reset,
// counting the present one.
func (w *memWatch) takePeak() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, res := memSample()
	return max(w.peak, res)
}

// stop ends the sampling, waits for it, and returns the highest heap
// it saw.
func (w *memWatch) stop() uint64 {
	close(w.done)
	<-w.exited
	return w.heapPeak
}
