package kernel

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"xok/internal/sim"
	"xok/internal/wkpred"
)

// The schedule pins: a seeded mix of every way environment code hands
// the CPU back — charges, blocks, sleeps, predicate sleeps, directed
// yields, critical sections, exits — among device-style engine events,
// logged as (now, kernel, env, op) and folded into a digest. The
// digests below were recorded with the original two-channel handoff;
// any change to how the token moves between goroutines must leave
// every logged instant and order exactly where it was.

// schedLog folds schedule records into an FNV-1a digest.
type schedLog struct {
	h hash.Hash64
	n int
}

func newSchedLog() *schedLog { return &schedLog{h: fnv.New64a()} }

func (l *schedLog) rec(vals ...int64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		l.h.Write(b[:])
	}
	l.n++
}

// Schedule op codes as logged.
const (
	opUse = iota
	opBlock
	opWake
	opSleep
	opSleepOn
	opYield
	opCritical
	opExit
	opDevice
)

// spawnSchedule starts n seeded environments on k (kernel index ki in
// the log) plus a device tick that steals interrupt cycles and wakes a
// blocked environment while any are live.
func spawnSchedule(k *Kernel, ki int64, seed uint64, n, steps int, log *schedLog) {
	envs := make([]*Env, n)
	var flag int64
	for i := range envs {
		rng := sim.NewRNG(seed*1000003 + uint64(ki)*101 + uint64(i) + 1)
		envs[i] = k.Spawn("sched", func(e *Env) {
			id := int64(e.ID())
			for s := 0; s < steps; s++ {
				op := rng.Intn(20)
				switch {
				case op < 8:
					c := sim.Time(rng.Intn(20000) + 1)
					if op == 0 {
						c = sim.Time(rng.Intn(int(3*DefaultQuantum))) + 1
					}
					e.Use(c)
					log.rec(int64(k.Now()), ki, id, opUse, int64(c))
				case op < 10:
					e.Block()
					log.rec(int64(k.Now()), ki, id, opBlock)
				case op < 12:
					t := envs[rng.Intn(n)]
					k.Wake(t)
					flag++
					e.Syscall(sim.Time(rng.Intn(3000)))
					log.rec(int64(k.Now()), ki, id, opWake, int64(t.ID()))
				case op < 13:
					e.Sleep(sim.Time(rng.Intn(int(sim.FromMillis(3)))) + 1)
					log.rec(int64(k.Now()), ki, id, opSleep)
				case op < 15:
					deadline := k.Now() + sim.Time(rng.Intn(int(sim.FromMillis(5)))) + 1
					p, err := wkpred.Compile(wkpred.Or(
						wkpred.Cmp(wkpred.GE, wkpred.Load(&flag), wkpred.Const(flag+2)),
						wkpred.Cmp(wkpred.GE, wkpred.Clock(), wkpred.Const(int64(deadline)))))
					if err != nil {
						panic(err)
					}
					e.SleepOn(p, deadline)
					log.rec(int64(k.Now()), ki, id, opSleepOn)
				case op < 17:
					var t *Env
					if j := rng.Intn(n + 1); j < n {
						t = envs[j]
					}
					e.YieldTo(t)
					log.rec(int64(k.Now()), ki, id, opYield)
				case op < 19:
					e.BeginCritical()
					e.Use(sim.Time(rng.Intn(int(2 * DefaultQuantum))))
					e.EndCritical()
					log.rec(int64(k.Now()), ki, id, opCritical)
				default:
					if rng.Intn(4) == 0 {
						log.rec(int64(k.Now()), ki, id, opExit)
						return
					}
					e.LibCall(sim.Time(rng.Intn(500)))
				}
			}
			log.rec(int64(k.Now()), ki, id, opExit)
		})
	}
	rng := sim.NewRNG(seed ^ 0xdead0000 + uint64(ki))
	var tick func()
	tick = func() {
		if k.LiveEnvs() == 0 {
			return
		}
		k.ChargeInterrupt(sim.Time(rng.Intn(2000)))
		start := rng.Intn(n)
		woke := int64(-1)
		for j := 0; j < n; j++ {
			if t := envs[(start+j)%n]; t.state == envBlocked {
				k.Wake(t)
				woke = int64(t.ID())
				break
			}
		}
		log.rec(int64(k.Now()), ki, -1, opDevice, woke)
		k.Eng.After(sim.Time(rng.Intn(int(sim.FromMillis(2))))+1, tick)
	}
	k.Eng.After(sim.Time(rng.Intn(int(sim.FromMillis(1))))+1, tick)
}

// finish folds a kernel's end state into the log and checks it ran to
// completion.
func finishSchedule(t *testing.T, k *Kernel, ki int64, log *schedLog) {
	t.Helper()
	if k.LiveEnvs() != 0 {
		t.Fatalf("kernel %d: %d environments still live", ki, k.LiveEnvs())
	}
	log.rec(int64(k.Now()), ki,
		k.Stats.Get(sim.CtrCtxSwitches), k.Stats.Get(sim.CtrUpcalls),
		k.Stats.Get(sim.CtrPredEvals), k.Stats.Get(sim.CtrSyscalls))
}

func TestSchedulePinned(t *testing.T) {
	const envs, steps = 6, 80
	cases := []struct {
		name    string
		seed    uint64
		kernels int
		digest  uint64
		records int
	}{
		{"private/seed1", 1, 1, 0x9d31fb93ebe194bc, 947},
		{"private/seed2", 2, 1, 0x3f2a66fa1e04188f, 1065},
		{"shared/seed1", 1, 2, 0x83c871047144eb94, 1775},
		{"shared/seed3", 3, 2, 0x15e648af8b95cb07, 1630},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			log := newSchedLog()
			var eng *sim.Engine
			if c.kernels > 1 {
				eng = sim.NewEngine()
			}
			ks := make([]*Kernel, c.kernels)
			for i := range ks {
				ks[i] = New(Config{Name: "xok", MemPages: 64, Eng: eng})
				spawnSchedule(ks[i], int64(i), c.seed, envs, steps, log)
			}
			ks[0].Run()
			for i, k := range ks {
				finishSchedule(t, k, int64(i), log)
			}
			if got := log.h.Sum64(); got != c.digest || log.n != c.records {
				t.Errorf("schedule digest %#x over %d records, pinned %#x over %d",
					got, log.n, c.digest, c.records)
			}
		})
	}
}

// TestHorizonStopsMidUse: a RunUntil or Crash whose instant lands
// inside a charge stops the clock at exactly that instant with the
// charge not yet returned; a later Run finishes on the clock pinned
// from the original handoff (the charge's end after a RunUntil, the
// orphaned burn event's instant after a Crash).
func TestHorizonStopsMidUse(t *testing.T) {
	const at = 30_000
	cases := []struct {
		name     string
		crash    bool
		returned sim.Time // when the straddling Use returns; 0 = never
		final    sim.Time
	}{
		{"RunUntil", false, 46_300, 47_300},
		{"Crash", true, 0, 46_300},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := newXok()
			returned := make(chan sim.Time, 1)
			k.Spawn("charger", func(e *Env) {
				e.Use(1000)
				e.Use(5000)
				e.Use(40_000) // straddles at
				returned <- k.Now()
			})
			if c.crash {
				k.Crash(at)
			} else {
				k.RunUntil(at)
			}
			if k.Now() != at {
				t.Fatalf("clock after %s(%d) = %d", c.name, at, k.Now())
			}
			select {
			case now := <-returned:
				t.Fatalf("Use returned at %d, before the horizon cut it", now)
			default:
			}
			k.Run()
			if k.Now() != c.final {
				t.Errorf("final clock = %d, want %d", k.Now(), c.final)
			}
			var got sim.Time
			select {
			case got = <-returned:
			case <-time.After(10 * time.Millisecond):
			}
			if got != c.returned {
				t.Errorf("straddling Use returned at %d, want %d (0 = never)", got, c.returned)
			}
		})
	}
}
