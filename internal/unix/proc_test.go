package unix_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"

	"xok/internal/cap"
	"xok/internal/cffs"
	"xok/internal/emu"
	"xok/internal/exos"
	"xok/internal/kernel"
	"xok/internal/machine"
	"xok/internal/sim"
	"xok/internal/unix"
)

var record = flag.Bool("record", false, "print the per-op charge table instead of checking it")

// charge is what one unix.Proc operation costs: virtual cycles and the
// counters the cost model moves.
type charge struct{ cycles, syscalls, protCalls, bytesCopied int64 }

// target is one machine the op table runs on.
type target struct {
	name        string
	pers        machine.Personality
	emulated    bool // run the process under emu.Emulate
	sharedPipes bool // Table 2's mutual-trust pipes
}

func targets() []target {
	var ts []target
	for _, p := range machine.Personalities() {
		ts = append(ts, target{name: p.String(), pers: p})
	}
	return append(ts,
		target{name: "Xok/ExOS emulated", pers: machine.XokExOS, emulated: true},
		target{name: "Xok/ExOS shared-memory pipes", pers: machine.XokExOS, sharedPipes: true})
}

// opState carries descriptors between steps.
type opState struct{ fd, r, w unix.FD }

// errSome marks a step that must fail with a file-system error whose
// exact value the personalities share through cffs.
var errSome = errors.New("some error")

type opStep struct {
	name string
	want error // nil, errSome, or the canonical value errors.Is must match
	run  func(p unix.Proc, st *opState) error
}

// xokWant replaces a step's want on the Xok machines, which mount a
// second file system at /mnt.
var xokWant = map[string]error{"rename-cross-mount": unix.ErrXDev}

func steps() []opStep {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 320) // 5120 B
	big := bytes.Repeat([]byte("x"), 3*unix.PipeCapacity)
	buf := make([]byte, 4096)
	seek := func(off int64, whence int) func(unix.Proc, *opState) error {
		return func(p unix.Proc, st *opState) error { _, err := p.Seek(st.fd, off, whence); return err }
	}
	return []opStep{
		{"getpid", nil, func(p unix.Proc, _ *opState) error { p.Getpid(); return nil }},
		{"mkdir", nil, func(p unix.Proc, _ *opState) error { return p.Mkdir("/d", 7) }},
		{"create", nil, func(p unix.Proc, st *opState) (err error) { st.fd, err = p.Create("/d/f", 6); return }},
		{"write", nil, func(p unix.Proc, st *opState) error { _, err := p.Write(st.fd, payload); return err }},
		{"seek-set", nil, seek(0, unix.SeekSet)},
		{"read", nil, func(p unix.Proc, st *opState) error { _, err := p.Read(st.fd, buf); return err }},
		{"seek-cur", nil, seek(-100, unix.SeekCur)},
		{"seek-end", nil, seek(0, unix.SeekEnd)},
		{"seek-negative", unix.ErrInval, seek(-1, unix.SeekSet)},
		{"seek-bad-whence", unix.ErrInval, seek(0, 7)},
		{"close", nil, func(p unix.Proc, st *opState) error { return p.Close(st.fd) }},
		{"create-existing", nil, func(p unix.Proc, st *opState) (err error) { st.fd, err = p.Create("/d/f", 6); return }},
		{"read-truncated", nil, func(p unix.Proc, st *opState) error {
			if n, err := p.Read(st.fd, buf); err != nil || n != 0 {
				return fmt.Errorf("read after truncate = %d, %v", n, err)
			}
			return nil
		}},
		{"close-again", nil, func(p unix.Proc, st *opState) error { return p.Close(st.fd) }},
		{"open", nil, func(p unix.Proc, st *opState) (err error) { st.fd, err = p.Open("/d/f"); return }},
		{"open-dir", errSome, func(p unix.Proc, _ *opState) error { _, err := p.Open("/d"); return err }},
		{"open-missing", errSome, func(p unix.Proc, _ *opState) error { _, err := p.Open("/nope"); return err }},
		{"close-open", nil, func(p unix.Proc, st *opState) error { return p.Close(st.fd) }},
		{"bad-fd-read", unix.ErrBadFD, func(p unix.Proc, st *opState) error { _, err := p.Read(st.fd, buf); return err }},
		{"bad-fd-write", unix.ErrBadFD, func(p unix.Proc, st *opState) error { _, err := p.Write(st.fd, buf); return err }},
		{"bad-fd-seek", unix.ErrBadFD, seek(0, unix.SeekSet)},
		{"bad-fd-close", unix.ErrBadFD, func(p unix.Proc, st *opState) error { return p.Close(st.fd) }},
		{"stat", nil, func(p unix.Proc, _ *opState) error { _, err := p.Stat("/d/f"); return err }},
		{"readdir", nil, func(p unix.Proc, _ *opState) error { _, err := p.Readdir("/d"); return err }},
		{"chmod", nil, func(p unix.Proc, _ *opState) error { return p.Chmod("/d/f", 4) }},
		{"symlink", nil, func(p unix.Proc, _ *opState) error { return p.Symlink("/d/f", "/d/l") }},
		{"rename", nil, func(p unix.Proc, _ *opState) error { return p.Rename("/d/f", "/d/g") }},
		// On Xok, /mnt is a second file system (see run); the BSDs have
		// no mount table and report the missing directory instead.
		{"rename-cross-mount", errSome, func(p unix.Proc, _ *opState) error { return p.Rename("/d/g", "/mnt/g") }},
		{"unlink", nil, func(p unix.Proc, _ *opState) error { return p.Unlink("/d/g") }},
		{"unlink-link", nil, func(p unix.Proc, _ *opState) error { return p.Unlink("/d/l") }},
		{"rmdir", nil, func(p unix.Proc, _ *opState) error { return p.Rmdir("/d") }},
		{"sync", nil, func(p unix.Proc, _ *opState) error { return p.Sync() }},
		{"pipe", nil, func(p unix.Proc, st *opState) (err error) { st.r, st.w, err = p.Pipe(); return }},
		{"pipe-write", nil, func(p unix.Proc, st *opState) error { _, err := p.Write(st.w, payload[:100]); return err }},
		{"pipe-read", nil, func(p unix.Proc, st *opState) error { _, err := p.Read(st.r, buf); return err }},
		{"read-write-end", unix.ErrBadFD, func(p unix.Proc, st *opState) error { _, err := p.Read(st.w, buf); return err }},
		{"write-read-end", unix.ErrBadFD, func(p unix.Proc, st *opState) error { _, err := p.Write(st.r, buf); return err }},
		{"seek-pipe", unix.ErrSeekPipe, func(p unix.Proc, st *opState) error { _, err := p.Seek(st.r, 0, unix.SeekSet); return err }},
		{"close-read-end", nil, func(p unix.Proc, st *opState) error { return p.Close(st.r) }},
		{"epipe", unix.ErrPipe, func(p unix.Proc, st *opState) error { _, err := p.Write(st.w, payload[:10]); return err }},
		{"close-write-end", nil, func(p unix.Proc, st *opState) error { return p.Close(st.w) }},
		{"fork-wait", nil, func(p unix.Proc, _ *opState) error {
			h, err := p.Spawn("child", func(c unix.Proc) { c.Getpid() })
			if err != nil {
				return err
			}
			h.Wait()
			return nil
		}},
		// A child inherits both pipe ends, writes three ring-fulls and
		// exits; the parent drops its write end and reads to EOF, so
		// both ends block and hand off, and EOF needs the inherited
		// write end closed at the child's exit.
		{"fork-pipe-eof", nil, func(p unix.Proc, st *opState) error {
			r, w, err := p.Pipe()
			if err != nil {
				return err
			}
			h, err := p.Spawn("writer", func(c unix.Proc) {
				c.Close(r)
				c.Write(w, big)
			})
			if err != nil {
				return err
			}
			p.Close(w)
			total := 0
			for {
				n, err := p.Read(r, buf)
				if err != nil {
					return err
				}
				if n == 0 {
					break
				}
				total += n
			}
			p.Close(r)
			h.Wait()
			if total != len(big) {
				return fmt.Errorf("read %d bytes through the pipe, want %d", total, len(big))
			}
			return nil
		}},
	}
}

// run executes every step on a fresh machine of the target and returns
// each step's charge.
func run(t *testing.T, tg target, ss []opStep) []charge {
	t.Helper()
	m, err := machine.New(machine.Config{Personality: tg.pers, SharedMemPipes: tg.sharedPipes,
		DiskBlocks: 16384, MemPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	x, mounted := m.(machine.Xok)
	if mounted {
		var memfs *cffs.FS
		x.S.K.Spawn("mkmnt", func(e *kernel.Env) {
			e.Creds = cap.UnixCreds(0)
			memfs, err = cffs.Mkfs(e, x.S.X, "tmpfs", cffs.MemConfig())
		})
		x.S.Run()
		if err != nil {
			t.Fatal(err)
		}
		x.S.Mount("/mnt", memfs)
	}
	st := m.Stats()
	out := make([]charge, len(ss))
	m.SpawnProc("ops", 0, func(p unix.Proc) {
		if tg.emulated {
			p = emu.Emulate(p.(*exos.Proc))
		}
		var os opState
		for i, s := range ss {
			want := s.want
			if w, ok := xokWant[s.name]; ok && mounted {
				want = w
			}
			before := charge{int64(p.Now()), st.Get(sim.CtrSyscalls), st.Get(sim.CtrProtCalls), st.Get(sim.CtrBytesCopied)}
			err := s.run(p, &os)
			out[i] = charge{int64(p.Now()) - before.cycles, st.Get(sim.CtrSyscalls) - before.syscalls,
				st.Get(sim.CtrProtCalls) - before.protCalls, st.Get(sim.CtrBytesCopied) - before.bytesCopied}
			switch {
			case want == nil && err != nil:
				t.Errorf("%s: %s: %v", tg.name, s.name, err)
			case want == errSome && err == nil:
				t.Errorf("%s: %s succeeded, want an error", tg.name, s.name)
			case want != nil && want != errSome && !errors.Is(err, want):
				t.Errorf("%s: %s = %v, want %v", tg.name, s.name, err, want)
			}
		}
	})
	m.Run()
	return out
}

// TestProcOpCharges pins, per personality, under the binary emulator
// and with ExOS's shared-memory pipes, what every unix.Proc operation
// costs: virtual cycles, kernel crossings, shared-state protection
// calls and bytes copied. The personalities share one implementation of the UNIX semantics and
// differ only in cost, so a change to that shared code must leave every
// number here unchanged. Regenerate with -record only for a deliberate
// recalibration.
func TestProcOpCharges(t *testing.T) {
	ts := targets()
	ss := steps()
	got := make([][]charge, len(ts))
	for i, tg := range ts {
		got[i] = run(t, tg, ss)
	}
	if *record {
		var b strings.Builder
		for j, s := range ss {
			fmt.Fprintf(&b, "\t{%q, [nTargets]charge{", s.name)
			for i := range ts {
				if i > 0 {
					b.WriteString(", ")
				}
				c := got[i][j]
				fmt.Fprintf(&b, "{%d, %d, %d, %d}", c.cycles, c.syscalls, c.protCalls, c.bytesCopied)
			}
			b.WriteString("}},\n")
		}
		t.Logf("pinned table:\n%s", b.String())
		return
	}
	if len(pinned) != len(ss) {
		t.Fatalf("pinned table has %d rows, the op table %d steps", len(pinned), len(ss))
	}
	for j, s := range ss {
		if pinned[j].step != s.name {
			t.Fatalf("pinned row %d is %q, step is %q", j, pinned[j].step, s.name)
		}
		for i, tg := range ts {
			if got[i][j] != pinned[j].charges[i] {
				t.Errorf("%s: %s charged {cycles syscalls prot copied} %v, pinned %v",
					tg.name, s.name, got[i][j], pinned[j].charges[i])
			}
		}
	}
}

// nTargets is the column count of pinned: the five personalities in
// machine.Personalities order, then Xok/ExOS under emu.Emulate, then
// Xok/ExOS with shared-memory pipes.
const nTargets = 7

var pinned = []struct {
	step    string
	charges [nTargets]charge
}{
	{"getpid", [nTargets]charge{{100, 0, 0, 0}, {100, 0, 0, 0}, {260, 1, 0, 0}, {260, 1, 0, 0}, {260, 1, 0, 0}, {112, 0, 0, 0}, {100, 0, 0, 0}}},
	{"mkdir", [nTargets]charge{{3843, 2, 0, 0}, {450, 0, 0, 0}, {4331669, 4, 0, 0}, {4331669, 4, 0, 0}, {1270, 1, 0, 0}, {3855, 2, 0, 0}, {3843, 2, 0, 0}}},
	{"create", [nTargets]charge{{4128, 4, 3, 0}, {1480, 0, 0, 0}, {3986216, 3, 0, 0}, {3986216, 3, 0, 0}, {2300, 1, 0, 0}, {4140, 4, 3, 0}, {4128, 4, 3, 0}}},
	{"write", [nTargets]charge{{14257, 6, 0, 5120}, {8713, 0, 0, 5120}, {9083, 1, 0, 5120}, {9083, 1, 0, 5120}, {9083, 1, 0, 5120}, {14269, 6, 0, 5120}, {14257, 6, 0, 5120}}},
	{"seek-set", [nTargets]charge{{80, 0, 0, 0}, {80, 0, 0, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}, {92, 0, 0, 0}, {80, 0, 0, 0}}},
	{"read", [nTargets]charge{{7006, 0, 0, 4096}, {7006, 0, 0, 4096}, {7376, 1, 0, 4096}, {7376, 1, 0, 4096}, {7376, 1, 0, 4096}, {7018, 0, 0, 4096}, {7006, 0, 0, 4096}}},
	{"seek-cur", [nTargets]charge{{80, 0, 0, 0}, {80, 0, 0, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}, {92, 0, 0, 0}, {80, 0, 0, 0}}},
	{"seek-end", [nTargets]charge{{80, 0, 0, 0}, {80, 0, 0, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}, {92, 0, 0, 0}, {80, 0, 0, 0}}},
	{"seek-negative", [nTargets]charge{{80, 0, 0, 0}, {80, 0, 0, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}, {92, 0, 0, 0}, {80, 0, 0, 0}}},
	{"seek-bad-whence", [nTargets]charge{{80, 0, 0, 0}, {80, 0, 0, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}, {92, 0, 0, 0}, {80, 0, 0, 0}}},
	{"close", [nTargets]charge{{480, 3, 3, 0}, {0, 0, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}, {492, 3, 3, 0}, {480, 3, 3, 0}}},
	{"create-existing", [nTargets]charge{{8124, 6, 3, 0}, {960, 0, 0, 0}, {7969184, 5, 0, 0}, {7969184, 5, 0, 0}, {1780, 1, 0, 0}, {8136, 6, 3, 0}, {8124, 6, 3, 0}}},
	{"read-truncated", [nTargets]charge{{160, 0, 0, 0}, {160, 0, 0, 0}, {530, 1, 0, 0}, {530, 1, 0, 0}, {530, 1, 0, 0}, {172, 0, 0, 0}, {160, 0, 0, 0}}},
	{"close-again", [nTargets]charge{{480, 3, 3, 0}, {0, 0, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}, {492, 3, 3, 0}, {480, 3, 3, 0}}},
	{"open", [nTargets]charge{{590, 3, 3, 0}, {110, 0, 0, 0}, {730, 1, 0, 0}, {730, 1, 0, 0}, {730, 1, 0, 0}, {602, 3, 3, 0}, {590, 3, 3, 0}}},
	{"open-dir", [nTargets]charge{{450, 0, 0, 0}, {450, 0, 0, 0}, {1070, 1, 0, 0}, {1070, 1, 0, 0}, {1070, 1, 0, 0}, {462, 0, 0, 0}, {450, 0, 0, 0}}},
	{"open-missing", [nTargets]charge{{450, 0, 0, 0}, {450, 0, 0, 0}, {1070, 1, 0, 0}, {1070, 1, 0, 0}, {1070, 1, 0, 0}, {462, 0, 0, 0}, {450, 0, 0, 0}}},
	{"close-open", [nTargets]charge{{480, 3, 3, 0}, {0, 0, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}, {492, 3, 3, 0}, {480, 3, 3, 0}}},
	{"bad-fd-read", [nTargets]charge{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {12, 0, 0, 0}, {0, 0, 0, 0}}},
	{"bad-fd-write", [nTargets]charge{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {12, 0, 0, 0}, {0, 0, 0, 0}}},
	{"bad-fd-seek", [nTargets]charge{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {12, 0, 0, 0}, {0, 0, 0, 0}}},
	{"bad-fd-close", [nTargets]charge{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {12, 0, 0, 0}, {0, 0, 0, 0}}},
	{"stat", [nTargets]charge{{110, 0, 0, 0}, {110, 0, 0, 0}, {630, 1, 0, 0}, {630, 1, 0, 0}, {630, 1, 0, 0}, {122, 0, 0, 0}, {110, 0, 0, 0}}},
	{"readdir", [nTargets]charge{{632, 0, 0, 0}, {632, 0, 0, 0}, {1252, 1, 0, 0}, {1252, 1, 0, 0}, {1252, 1, 0, 0}, {644, 0, 0, 0}, {632, 0, 0, 0}}},
	{"chmod", [nTargets]charge{{2350, 1, 0, 0}, {110, 0, 0, 0}, {3984532, 3, 0, 0}, {3984532, 3, 0, 0}, {830, 1, 0, 0}, {2362, 1, 0, 0}, {2350, 1, 0, 0}}},
	{"symlink", [nTargets]charge{{11000, 6, 0, 4}, {926, 0, 0, 4}, {7113841, 5, 0, 4}, {7113841, 5, 0, 4}, {1746, 1, 0, 4}, {11012, 6, 0, 4}, {11000, 6, 0, 4}}},
	{"rename", [nTargets]charge{{3880, 1, 0, 0}, {1480, 0, 0, 0}, {3986002, 3, 0, 0}, {3986002, 3, 0, 0}, {2300, 1, 0, 0}, {3892, 1, 0, 0}, {3880, 1, 0, 0}}},
	{"rename-cross-mount", [nTargets]charge{{0, 0, 0, 0}, {0, 0, 0, 0}, {1720, 1, 0, 0}, {1720, 1, 0, 0}, {1720, 1, 0, 0}, {12, 0, 0, 0}, {0, 0, 0, 0}}},
	{"unlink", [nTargets]charge{{2438, 1, 0, 0}, {110, 0, 0, 0}, {3984532, 3, 0, 0}, {3984532, 3, 0, 0}, {830, 1, 0, 0}, {2450, 1, 0, 0}, {2438, 1, 0, 0}}},
	{"unlink-link", [nTargets]charge{{4626, 2, 0, 0}, {110, 0, 0, 0}, {3971231, 3, 0, 0}, {3971231, 3, 0, 0}, {830, 1, 0, 0}, {4638, 2, 0, 0}, {4626, 2, 0, 0}}},
	{"rmdir", [nTargets]charge{{2342, 1, 0, 0}, {110, 0, 0, 0}, {3971446, 3, 0, 0}, {3971446, 3, 0, 0}, {830, 1, 0, 0}, {2354, 1, 0, 0}, {2342, 1, 0, 0}}},
	{"sync", [nTargets]charge{{1213232, 1, 0, 0}, {1211156, 1, 0, 0}, {420, 1, 0, 0}, {420, 1, 0, 0}, {1123505, 2, 0, 0}, {1213244, 1, 0, 0}, {1213232, 1, 0, 0}}},
	{"pipe", [nTargets]charge{{1376, 7, 6, 0}, {416, 1, 0, 0}, {1020, 1, 0, 0}, {1020, 1, 0, 0}, {1020, 1, 0, 0}, {1388, 7, 6, 0}, {1146, 6, 6, 0}}},
	{"pipe-write", [nTargets]charge{{966, 1, 0, 100}, {966, 1, 0, 100}, {556, 1, 0, 100}, {556, 1, 0, 100}, {556, 1, 0, 100}, {978, 1, 0, 100}, {306, 0, 0, 100}}},
	{"pipe-read", [nTargets]charge{{3126, 2, 0, 100}, {3126, 2, 0, 100}, {556, 1, 0, 100}, {556, 1, 0, 100}, {556, 1, 0, 100}, {3138, 2, 0, 100}, {306, 0, 0, 100}}},
	{"read-write-end", [nTargets]charge{{0, 0, 0, 0}, {0, 0, 0, 0}, {370, 1, 0, 0}, {370, 1, 0, 0}, {370, 1, 0, 0}, {12, 0, 0, 0}, {0, 0, 0, 0}}},
	{"write-read-end", [nTargets]charge{{0, 0, 0, 0}, {0, 0, 0, 0}, {370, 1, 0, 0}, {370, 1, 0, 0}, {370, 1, 0, 0}, {12, 0, 0, 0}, {0, 0, 0, 0}}},
	{"seek-pipe", [nTargets]charge{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {12, 0, 0, 0}, {0, 0, 0, 0}}},
	{"close-read-end", [nTargets]charge{{480, 3, 3, 0}, {0, 0, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}, {492, 3, 3, 0}, {480, 3, 3, 0}}},
	{"epipe", [nTargets]charge{{120, 0, 0, 0}, {120, 0, 0, 0}, {370, 1, 0, 0}, {370, 1, 0, 0}, {370, 1, 0, 0}, {132, 0, 0, 0}, {120, 0, 0, 0}}},
	{"close-write-end", [nTargets]charge{{480, 3, 3, 0}, {0, 0, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}, {492, 3, 3, 0}, {480, 3, 3, 0}}},
	{"fork-wait", [nTargets]charge{{1633924, 12, 3, 0}, {1633444, 9, 0, 0}, {562500, 3, 0, 0}, {562500, 3, 0, 0}, {562500, 3, 0, 0}, {1633948, 12, 3, 0}, {1633924, 12, 3, 0}}},
	{"fork-pipe-eof", [nTargets]charge{{1848838, 56, 18, 98304}, {1845958, 38, 0, 98304}, {752530, 20, 0, 98304}, {752530, 20, 0, 98304}, {752530, 20, 0, 98304}, {1849066, 56, 18, 98304}, {1810420, 27, 18, 98304}}},
}
