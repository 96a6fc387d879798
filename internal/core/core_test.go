package core

import (
	"testing"

	"xok/internal/sim"
	"xok/internal/workload"
)

func TestTable2PipeShape(t *testing.T) {
	// Table 2: Shared memory 13/150 us, Protection 30/148 us, OpenBSD
	// 34/160 us (1-byte / 8-KB latency). The shape: shared < protected
	// <= OpenBSD at 1 byte; at 8 KB the copy cost dominates and all
	// three converge, with the user-level pipes still at or below
	// OpenBSD ("even with gratuitous use of Xok's protection
	// mechanisms, user-level pipes can still outperform OpenBSD").
	rows, err := (&Bench{}).Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-14s 1B=%8.1fus  8KB=%8.1fus", r.Impl, r.Lat1B.Micros(), r.Lat8KB.Micros())
	}
	shared, prot, bsd := rows[0], rows[1], rows[2]
	if !(shared.Lat1B < prot.Lat1B) {
		t.Errorf("1B: shared (%v) must beat protected (%v)", shared.Lat1B, prot.Lat1B)
	}
	if !(prot.Lat1B <= bsd.Lat1B) {
		t.Errorf("1B: protected (%v) must not exceed OpenBSD (%v)", prot.Lat1B, bsd.Lat1B)
	}
	if !(prot.Lat8KB <= bsd.Lat8KB) {
		t.Errorf("8KB: protected (%v) must not exceed OpenBSD (%v)", prot.Lat8KB, bsd.Lat8KB)
	}
	// 8-KB latencies converge within ~25% between shared and protected
	// (148 vs 150 us in the paper).
	ratio := float64(prot.Lat8KB) / float64(shared.Lat8KB)
	if ratio > 1.4 {
		t.Errorf("8KB shared/protected ratio = %.2f, want near 1", ratio)
	}
	// Magnitudes: within a factor ~2.5 of the published values.
	checks := []struct {
		name string
		got  sim.Time
		want float64 // microseconds
	}{
		{"shared 1B", shared.Lat1B, 13},
		{"protected 1B", prot.Lat1B, 30},
		{"openbsd 1B", bsd.Lat1B, 34},
		{"shared 8KB", shared.Lat8KB, 150},
		{"protected 8KB", prot.Lat8KB, 148},
		{"openbsd 8KB", bsd.Lat8KB, 160},
	}
	for _, c := range checks {
		us := c.got.Micros()
		if us < c.want/2.5 || us > c.want*2.5 {
			t.Errorf("%s = %.1fus, paper reports %.0fus", c.name, us, c.want)
		}
	}
}

func TestBootHelpers(t *testing.T) {
	if s := BootXok(); s.FS == nil || !s.Cfg.Protect {
		t.Fatal("BootXok misconfigured")
	}
	if cells := Figure45Cells(); len(cells) != 5 || cells[4].TotalJobs != 35 {
		t.Fatal("figure 4/5 cells wrong")
	}
	if len(workload.Pool1()) != 9 || len(workload.Pool2()) != 5 {
		t.Fatal("pool sizes wrong")
	}
}

func TestRunFigure3Smoke(t *testing.T) {
	results, err := (&Bench{}).Figure3(8, 50*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 25 {
		t.Fatalf("cells = %d, want 5 servers x 5 sizes", len(results))
	}
	for _, r := range results {
		if r.Requests == 0 {
			t.Errorf("%s@%d completed nothing", r.Server, r.DocSize)
		}
	}
}

func TestRunGlobalSmoke(t *testing.T) {
	rows, err := (&Bench{}).GlobalSweep(workload.Pool1(), []GlobalCell{{TotalJobs: 4, MaxConc: 2}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	xok, fbsd := rows[0][0], rows[0][1]
	if xok.Total == 0 || fbsd.Total == 0 {
		t.Fatalf("empty results: %+v %+v", xok, fbsd)
	}
	if xok.TotalJobs != 4 || xok.MaxConc != 2 {
		t.Fatalf("cell echoed wrong: %+v", xok)
	}
}

func TestRunFigure2AndMABSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	b := &Bench{}
	f2, err := b.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2) != 4 || len(f2[0].Steps) != 11 {
		t.Fatalf("figure 2 shape: %d systems, %d steps", len(f2), len(f2[0].Steps))
	}
	mab, err := b.MAB()
	if err != nil {
		t.Fatal(err)
	}
	if len(mab) != 4 || len(mab[0].Phases) != 5 {
		t.Fatalf("MAB shape: %d systems, %d phases", len(mab), len(mab[0].Phases))
	}
	pc, err := b.ProtectionCost()
	if err != nil {
		t.Fatal(err)
	}
	if pc.WithProtection.Total <= pc.WithoutProtection.Total {
		t.Fatal("protection result inverted")
	}
}

// TestEmulatorAndXCPShape: Section 7.1's emulated getpid beats the
// native OpenBSD call, and Section 7.2's XCP beats cp in core and on
// disk.
func TestEmulatorAndXCPShape(t *testing.T) {
	b := &Bench{}
	em, err := b.Emulator()
	if err != nil {
		t.Fatal(err)
	}
	if !(em.Emulated < em.Native) {
		t.Errorf("getpid: emulated %d cycles, native %d: emulation should win", em.Emulated, em.Native)
	}
	rows, err := b.XCP()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Cold || !rows[1].Cold {
		t.Fatalf("XCP rows = %+v, want in core then on disk", rows)
	}
	for _, r := range rows {
		if r.Speedup() < 3 {
			t.Errorf("cold=%v: cp %v, xcp %v, speedup %.1fx, want >= 3x", r.Cold, r.Cp, r.XCP, r.Speedup())
		}
	}
}
