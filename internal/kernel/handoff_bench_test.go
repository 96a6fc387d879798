package kernel

import (
	"testing"
)

// The token handoff's two costs, one benchmark each: a charge that
// fits the slice with nothing else due moves the clock in place and
// never leaves the environment's goroutine, and a change of running
// environment costs exactly one goroutine switch. Each reports the
// switches it made per operation from the GoroutineSwitches meter.

// useInPlace runs one environment charging n times in a loop.
func useInPlace(n int) *Kernel {
	k := newXok()
	k.Spawn("charger", func(e *Env) {
		for i := 0; i < n; i++ {
			e.Use(100)
		}
	})
	return k
}

// envSwitch runs two environments handing the CPU back and forth with
// directed yields, n hops in all.
func envSwitch(n int) *Kernel {
	k := newXok()
	var ping, pong *Env
	hops := 0
	hop := func(e *Env, to **Env) {
		for hops < n {
			hops++
			e.YieldTo(*to)
		}
	}
	ping = k.Spawn("ping", func(e *Env) { hop(e, &pong) })
	pong = k.Spawn("pong", func(e *Env) { hop(e, &ping) })
	return k
}

func benchHandoff(b *testing.B, build func(int) *Kernel) {
	b.ReportAllocs()
	k := build(b.N)
	sw := GoroutineSwitches()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	b.ReportMetric(float64(GoroutineSwitches()-sw)/float64(b.N), "switches/op")
}

func BenchmarkKernelUseInPlace(b *testing.B) { benchHandoff(b, useInPlace) }
func BenchmarkKernelEnvSwitch(b *testing.B)  { benchHandoff(b, envSwitch) }

// TestHandoffSwitchCounts pins the mechanism itself: apart from the
// Run caller's handoff in and back (and, for the yields, one more
// switch to let the second environment see the count and exit),
// charges cost no switch and every hop between environments costs
// one.
func TestHandoffSwitchCounts(t *testing.T) {
	const n = 5000
	for _, c := range []struct {
		name  string
		build func(int) *Kernel
		want  int64
	}{
		{"UseInPlace", useInPlace, 2},
		{"EnvSwitch", envSwitch, n + 3},
	} {
		k := c.build(n)
		sw := GoroutineSwitches()
		k.Run()
		if got := GoroutineSwitches() - sw; got != c.want {
			t.Errorf("%s: %d goroutine switches for %d ops, want %d", c.name, got, n, c.want)
		}
	}
}

// TestHandoffAllocFree gates both benchmarks' steady state at zero
// allocations: one Use, and one round trip of two directed yields,
// measured from inside the running environment.
func TestHandoffAllocFree(t *testing.T) {
	k := newXok()
	var ping, pong *Env
	done := false
	var useAllocs, yieldAllocs float64
	ping = k.Spawn("ping", func(e *Env) {
		useAllocs = testing.AllocsPerRun(1000, func() { e.Use(100) })
		yieldAllocs = testing.AllocsPerRun(1000, func() { e.YieldTo(pong) })
		done = true
	})
	pong = k.Spawn("pong", func(e *Env) {
		for !done {
			e.YieldTo(ping)
		}
	})
	k.Run()
	if useAllocs != 0 {
		t.Errorf("Env.Use in place: %v allocs/op, want 0", useAllocs)
	}
	if yieldAllocs != 0 {
		t.Errorf("YieldTo round trip: %v allocs/op, want 0", yieldAllocs)
	}
}
