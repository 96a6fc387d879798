package exos

import (
	"errors"
	"testing"

	"xok/internal/unix"
)

func TestSignalDelivery(t *testing.T) {
	s := Boot(Config{})
	got := make(chan [2]int, 1)
	var waiterPid int
	s.Spawn("waiter", 0, func(p unix.Proc) {
		ep := p.(*Proc)
		waiterPid = ep.PID()
		sig, from := ep.Pause()
		got <- [2]int{sig, from}
	})
	s.Spawn("killer", 0, func(p unix.Proc) {
		ep := p.(*Proc)
		p.Compute(1000)
		if err := ep.Kill(waiterPid, SIGUSR1); err != nil {
			t.Errorf("kill: %v", err)
		}
	})
	s.Run()
	select {
	case g := <-got:
		if g[0] != SIGUSR1 {
			t.Fatalf("signal = %d, want SIGUSR1", g[0])
		}
		if g[1] != 2 {
			t.Fatalf("sender pid = %d, want 2", g[1])
		}
	default:
		t.Fatal("signal never delivered")
	}
	s.K.Shutdown()
}

func TestSignalsQueueInOrder(t *testing.T) {
	s := Boot(Config{})
	s.Spawn("target", 0, func(p unix.Proc) {
		ep := p.(*Proc)
		want := []int{SIGHUP, SIGTERM, SIGUSR2}
		for i := 0; i < 3; i++ {
			sig, _ := ep.Pause() // blocks until each signal arrives
			if sig != want[i] {
				t.Errorf("signal %d = %d, want %d", i, sig, want[i])
			}
		}
	})
	s.Spawn("sender", 0, func(p unix.Proc) {
		ep := p.(*Proc)
		for _, sig := range []int{SIGHUP, SIGTERM, SIGUSR2} {
			if err := ep.Kill(1, sig); err != nil {
				t.Errorf("kill: %v", err)
			}
		}
	})
	s.Run()
}

func TestKillNoSuchProcess(t *testing.T) {
	s := Boot(Config{})
	s.Spawn("k", 0, func(p unix.Proc) {
		if err := p.(*Proc).Kill(999, SIGTERM); !errors.Is(err, ErrNoProcess) {
			t.Errorf("err = %v, want ErrNoProcess", err)
		}
	})
	s.Run()
}
