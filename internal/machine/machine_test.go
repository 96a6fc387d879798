package machine

import (
	"testing"

	"xok/internal/fault"
	"xok/internal/unix"
)

func TestNewBootsEveryPersonality(t *testing.T) {
	for _, p := range []Personality{XokExOS, XokUnprotected, FreeBSD, OpenBSD, OpenBSDCFFS} {
		m, err := New(Config{Personality: p, DiskBlocks: 1 << 15})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if m.Kern() == nil || m.Disk() == nil || m.Stats() == nil {
			t.Fatalf("%v: accessors returned nil", p)
		}
		ok := false
		m.SpawnProc("probe", 0, func(pr unix.Proc) {
			if _, err := pr.Create("/probe", 6); err == nil {
				ok = true
			}
		})
		m.Run()
		if !ok {
			t.Fatalf("%v: file system not usable", p)
		}
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{Personality: FreeBSD, SharedMemPipes: true}); err == nil {
		t.Error("shared-memory pipes accepted on FreeBSD")
	}
	if _, err := New(Config{Personality: Personality(99)}); err == nil {
		t.Error("unknown personality accepted")
	}
}

func TestConfigThreadsGeometryAndFaults(t *testing.T) {
	plan := &fault.Plan{Seed: 1, TornWrites: true}
	m := MustNew(Config{
		Personality: XokExOS,
		DiskBlocks:  1 << 15,
		Faults:      plan,
	})
	if m.Kern().Faults != plan {
		t.Error("fault plan not threaded to the kernel")
	}
	img := m.Crash(m.Now() + 1000)
	if img == nil {
		t.Error("crash image nil")
	}
}
