// Package difftest is the deterministic differential syscall fuzzer:
// it turns the OS personalities into each other's semantic oracles.
//
// The paper's central claim is relational — Xok/ExOS and the
// monolithic BSD models must agree on UNIX *semantics* while differing
// only in *cost* (Sections 6 and 7). difftest checks that claim at
// scale: a seed-driven generator synthesizes random but well-formed
// syscall programs (gen.go), each program runs on every personality
// via machine.New, and the full observable outcome is compared —
// per-call return values and errno, the final directory tree with
// file-content hashes, and post-run fsck cleanliness of the crashed
// disk image (cffs.AuditImage). The first divergence fails the seed;
// the failing program is then delta-shrunk (shrink.go) to a minimal
// reproducer and reported with a one-line replay token that re-runs it
// bit-identically.
//
// A second mode (determinism.go) runs the same program twice on the
// same personality — optionally under a fault.Plan — and compares
// outcomes, cycle counts and trace digests bit-exactly, proving the
// simulation itself is deterministic (the property every other result
// in this repository rests on).
package difftest

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"xok/internal/cffs"
	"xok/internal/fault"
	"xok/internal/machine"
	"xok/internal/parallel"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/unix"
	"xok/internal/xn"
)

// Options configures a fuzzing run. The zero value is not useful; see
// Defaults.
type Options struct {
	// Seeds is how many generated programs to try.
	Seeds int
	// Steps is the length of each generated program.
	Steps int
	// BaseSeed offsets the seed sequence (seed i = BaseSeed + i).
	BaseSeed uint64
	// Faults switches to determinism mode: instead of comparing
	// personalities against each other (whose syscall counts differ, so
	// a kill-at-Nth fault would fire at different program points), each
	// personality runs the program twice under a cloned plan and the
	// two runs must match bit-exactly.
	Faults *fault.Plan
	// Log receives one-line progress; nil = silent.
	Log io.Writer

	// Parallel is the worker count for the per-seed fan-out; <= 1 runs
	// fully serially. Each seed's machines boot and run on one worker
	// goroutine while results are consumed — logged, compared, shrunk —
	// strictly in seed order, so the campaign's output (and the
	// divergence it finds, if any) is identical at every worker count.
	Parallel int

	// Snapshot turns on the fork-based fast path: the campaign boots
	// each personality once to its post-boot quiescent point (mkfs
	// done, nothing spawned), snapshots it, and every seed forks from
	// that snapshot instead of re-paying boot. Replay equivalence
	// (forks continue bit-identically) keeps outcomes, trees, audits,
	// cycle counts and trace digests the same with the flag on or off.
	// In determinism mode the two runs become one from-boot run and one
	// forked run compared bit-exactly — which additionally proves the
	// snapshot captured the tracer and the fault plan's stream
	// positions, not just memory and disk.
	Snapshot bool

	// DiskBlocks/MemPages size the machines (0 = 16384 / 2048 — small
	// keeps a 500-seed run fast).
	DiskBlocks int64
	MemPages   int

	// mutate, when set, rewrites a recorded outcome — the mutation-test
	// hook: tests inject a fake divergence on one personality and
	// assert the harness catches, shrinks and replays it. It is called
	// from worker goroutines when Parallel > 1, so it must be a pure
	// function of its arguments.
	mutate func(personality string, step int, out string) string

	// snaps holds the per-personality post-boot snapshots while a
	// Snapshot campaign runs. Read-only once built, so worker
	// goroutines fork from them concurrently without locking.
	snaps map[machine.Personality]*machine.Snapshot
}

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if o.Seeds == 0 {
		o.Seeds = 100
	}
	if o.Steps == 0 {
		o.Steps = 40
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.DiskBlocks == 0 {
		o.DiskBlocks = 16384
	}
	if o.MemPages == 0 {
		o.MemPages = 2048
	}
	return o
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Result is everything observable about one program execution.
type Result struct {
	Outcomes []string // one canonical line per executed step
	Tree     []string // final namespace: entries + content hashes, no MTime
	Audit    []string // post-crash fsck findings (empty = clean)
	Cycles   sim.Time // final virtual time (compared in determinism mode)
	Digest   uint64   // trace digest (compared in determinism mode)
}

// Divergence describes one caught disagreement.
type Divergence struct {
	Seed  uint64
	Steps int   // generated program length
	Keep  []int // indices kept after shrinking (nil = all)
	A, B  string
	Where string // human-readable first point of disagreement
	Token string // replay token: re-runs this exact reproducer
}

// Error renders the divergence as the harness reports it.
func (d *Divergence) Error() string {
	return fmt.Sprintf("difftest: %s vs %s diverge (seed %d): %s\nreplay: %s",
		d.A, d.B, d.Seed, d.Where, d.Token)
}

// errno canonicalizes an error to its POSIX name. Unknown errors pass
// through raw — if a personality invents a private error value, the
// raw text shows up as a divergence instead of hiding behind a
// catch-all.
func errno(err error) string {
	switch {
	case err == nil:
		return "OK"
	case errors.Is(err, cffs.ErrNotFound):
		return "ENOENT"
	case errors.Is(err, cffs.ErrExists):
		return "EEXIST"
	case errors.Is(err, cffs.ErrIsDir):
		return "EISDIR"
	case errors.Is(err, cffs.ErrNotDir):
		return "ENOTDIR"
	case errors.Is(err, cffs.ErrNotEmpty):
		return "ENOTEMPTY"
	case errors.Is(err, cffs.ErrNameLen):
		return "ENAMETOOLONG"
	case errors.Is(err, cffs.ErrLinkLoop):
		return "ELOOP"
	case errors.Is(err, cffs.ErrStale):
		return "ESTALE"
	case errors.Is(err, cffs.ErrFileLimit):
		return "EFBIG"
	case errors.Is(err, cffs.ErrDirFull), errors.Is(err, xn.ErrNotFree):
		return "ENOSPC"
	case errors.Is(err, cffs.ErrInvalOp), errors.Is(err, unix.ErrInval):
		return "EINVAL"
	case errors.Is(err, unix.ErrBadFD):
		return "EBADF"
	case errors.Is(err, unix.ErrSeekPipe):
		return "ESPIPE"
	case errors.Is(err, unix.ErrPipe):
		return "EPIPE"
	case errors.Is(err, unix.ErrXDev):
		return "EXDEV"
	case errors.Is(err, fault.ErrMedia):
		return "EIO"
	default:
		return err.Error()
	}
}

// badFD is the descriptor passed for a slot whose producer is not in
// the program (removed by shrinking, or never generated): far outside
// any real table, so every personality answers EBADF.
const badFD = unix.FD(1 << 30)

// pipeModel tracks one pipe's executor-side state. Because a program
// is a single process holding both ends, an operation that would block
// can never be woken — the executor must skip it, deterministically,
// based only on the program and previously returned counts (identical
// across personalities), so any shrunk subset of steps still executes
// without deadlock.
type pipeModel struct {
	fill         int
	rOpen, wOpen bool
}

type execState struct {
	fds   map[int]unix.FD
	pipes map[int]*pipeModel // slot -> pipe (both end slots map to it)
	wEnd  map[int]bool       // slot is the write end
	buf   []byte             // reusable read/write payload scratch
}

// scratch returns an n-byte payload buffer, reused across steps: the
// kernel layers copy payloads in and out, never retaining the slice.
func (st *execState) scratch(n int) []byte {
	if cap(st.buf) < n {
		st.buf = make([]byte, n)
	}
	return st.buf[:n]
}

// fnv1a folds bytes into an FNV-1a hash (the repo's standard digest).
func fnv1a(h uint64, data []byte) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// stepPrefixes renders the per-step outcome-line prefixes ("<idx>
// <step> = ") once; every personality running the same kept program
// shares them instead of re-formatting identical step text five times.
func stepPrefixes(steps []Step, keep []int) []string {
	out := make([]string, len(keep))
	for j, i := range keep {
		out[j] = fmt.Sprintf("%3d %s = ", i, steps[i])
	}
	return out
}

// execute runs the kept steps of a program inside proc p, recording
// one canonical outcome line per step. prefixes must come from
// stepPrefixes(steps, keep).
func (o *Options) execute(p unix.Proc, persona string, steps []Step, keep []int, prefixes []string, res *Result) {
	st := &execState{
		fds:   make(map[int]unix.FD),
		pipes: make(map[int]*pipeModel),
		wEnd:  make(map[int]bool),
	}
	for j, i := range keep {
		out := st.step(p, steps[i])
		if o.mutate != nil {
			out = o.mutate(persona, i, out)
		}
		res.Outcomes = append(res.Outcomes, prefixes[j]+out)
	}
}

func (st *execState) fd(slot int) unix.FD {
	if fd, ok := st.fds[slot]; ok {
		return fd
	}
	return badFD
}

func (st *execState) step(p unix.Proc, s Step) string {
	switch s.Op {
	case OpMkdir:
		return errno(p.Mkdir(s.Path, s.Mode))
	case OpCreate:
		fd, err := p.Create(s.Path, s.Mode)
		if err == nil {
			st.fds[s.Slot] = fd
		}
		return errno(err)
	case OpOpen:
		fd, err := p.Open(s.Path)
		if err == nil {
			st.fds[s.Slot] = fd
		}
		return errno(err)
	case OpRead:
		if pm := st.pipes[s.FD]; pm != nil && !st.wEnd[s.FD] &&
			pm.fill == 0 && pm.wOpen {
			return "SKIP(would block)"
		}
		buf := st.scratch(s.Size)
		n, err := p.Read(st.fd(s.FD), buf)
		if pm := st.pipes[s.FD]; pm != nil && !st.wEnd[s.FD] && err == nil {
			pm.fill -= n
		}
		return fmt.Sprintf("%d,%s,h=%x", n, errno(err), fnv1a(0, buf[:n]))
	case OpWrite:
		if pm := st.pipes[s.FD]; pm != nil && st.wEnd[s.FD] &&
			pm.rOpen && s.Size > unix.PipeCapacity-pm.fill {
			return "SKIP(would block)"
		}
		buf := st.scratch(s.Size)
		for i := range buf {
			buf[i] = s.Fill + byte(i%7)
		}
		n, err := p.Write(st.fd(s.FD), buf)
		if pm := st.pipes[s.FD]; pm != nil && st.wEnd[s.FD] && err == nil {
			pm.fill += n
		}
		return fmt.Sprintf("%d,%s", n, errno(err))
	case OpSeek:
		pos, err := p.Seek(st.fd(s.FD), s.Off, s.Whence)
		return fmt.Sprintf("%d,%s", pos, errno(err))
	case OpClose:
		err := p.Close(st.fd(s.FD))
		if pm := st.pipes[s.FD]; pm != nil && err == nil {
			if st.wEnd[s.FD] {
				pm.wOpen = false
			} else {
				pm.rOpen = false
			}
		}
		if err == nil {
			delete(st.fds, s.FD)
		}
		return errno(err)
	case OpStat:
		info, err := p.Stat(s.Path)
		if err != nil {
			return errno(err)
		}
		return fmt.Sprintf("size=%d,mode=%o,uid=%d,dir=%v", info.Size, info.Mode, info.UID, info.IsDir)
	case OpChmod:
		return errno(p.Chmod(s.Path, s.Mode))
	case OpReaddir:
		ents, err := p.Readdir(s.Path)
		if err != nil {
			return errno(err)
		}
		names := make([]string, len(ents))
		for i, e := range ents {
			kind := "f"
			if e.IsDir {
				kind = "d"
			} else if e.IsLink {
				kind = "l"
			}
			names[i] = kind + ":" + e.Name
		}
		sort.Strings(names)
		return "[" + strings.Join(names, " ") + "]"
	case OpUnlink:
		return errno(p.Unlink(s.Path))
	case OpRmdir:
		return errno(p.Rmdir(s.Path))
	case OpRename:
		return errno(p.Rename(s.Path, s.Path2))
	case OpSymlink:
		return errno(p.Symlink(s.Path, s.Path2))
	case OpPipe:
		r, w, err := p.Pipe()
		if err == nil {
			st.fds[s.Slot] = r
			st.fds[s.Slot+1] = w
			pm := &pipeModel{rOpen: true, wOpen: true}
			st.pipes[s.Slot] = pm
			st.pipes[s.Slot+1] = pm
			st.wEnd[s.Slot+1] = true
		}
		return errno(err)
	case OpFork:
		// fork-lite: spawn + immediate wait; the child is restricted to
		// file operations so the interleaving is fully serialized.
		childErr := "OK"
		h, err := p.Spawn("child", func(c unix.Proc) {
			fd, err := c.Create(s.Path, 6)
			if err != nil {
				childErr = errno(err)
				return
			}
			buf := make([]byte, 64)
			for i := range buf {
				buf[i] = s.Fill
			}
			if _, err := c.Write(fd, buf); err != nil {
				childErr = errno(err)
			}
			if err := c.Close(fd); err != nil && childErr == "OK" {
				childErr = errno(err)
			}
		})
		if err != nil {
			return errno(err)
		}
		h.Wait()
		return "OK,child=" + childErr
	case OpSync:
		return errno(p.Sync())
	}
	return "?"
}

// observe walks the final namespace: every directory (sorted), every
// file's size/mode/uid and full content hash. MTime is deliberately
// excluded — it derives from virtual time, which is cost-dependent and
// so legitimately differs across personalities.
func observe(p unix.Proc, dir string, depth int, out *[]string, buf []byte) {
	if depth > 8 {
		return
	}
	path := dir
	if path == "" {
		path = "/"
	}
	ents, err := p.Readdir(path)
	if err != nil {
		*out = append(*out, fmt.Sprintf("D %s readdir=%s", path, errno(err)))
		return
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	for _, e := range ents {
		full := dir + "/" + e.Name
		switch {
		case e.IsDir:
			info, err := p.Stat(full)
			*out = append(*out, fmt.Sprintf("D %s mode=%o uid=%d (%s)", full, info.Mode, info.UID, errno(err)))
			observe(p, full, depth+1, out, buf)
		case e.IsLink:
			*out = append(*out, fmt.Sprintf("L %s size=%d", full, e.Size))
		default:
			line := fmt.Sprintf("F %s size=%d", full, e.Size)
			if info, err := p.Stat(full); err == nil {
				line += fmt.Sprintf(" mode=%o uid=%d", info.Mode, info.UID)
			}
			if fd, err := p.Open(full); err == nil {
				h := uint64(0)
				for {
					n, err := p.Read(fd, buf)
					if n > 0 {
						h = fnv1a(h, buf[:n])
					}
					if err != nil || n == 0 {
						break
					}
				}
				p.Close(fd)
				line += fmt.Sprintf(" h=%x", h)
			} else {
				line += " open=" + errno(err)
			}
			*out = append(*out, line)
		}
	}
}

// runProgram executes the kept steps of a program on one personality
// and captures the full observable Result. prefixes, when non-nil,
// must come from stepPrefixes(steps, keep); callers running the same
// program on several personalities pass one shared set.
func (o *Options) runProgram(pers machine.Personality, steps []Step, keep []int, prefixes []string, plan *fault.Plan, withTrace bool) (*Result, error) {
	var tr *trace.Tracer
	if withTrace {
		tr = trace.New()
	}
	if prefixes == nil {
		prefixes = stepPrefixes(steps, keep)
	}
	m, err := machine.New(machine.Config{
		Personality: pers,
		DiskBlocks:  o.DiskBlocks,
		MemPages:    o.MemPages,
		Faults:      plan,
		Trace:       tr,
	})
	if err != nil {
		return nil, err
	}
	return o.finishProgram(m, pers.String(), steps, keep, prefixes), nil
}

// forkProgram is runProgram's snapshot fast path: instead of booting a
// machine it forks the personality's post-boot snapshot and runs the
// kept steps there. The fork resumes the snapshot's tracer and
// fault-plan stream positions, so the Result is bit-identical to a
// from-boot run's — determinismOnce checks exactly that.
func (o *Options) forkProgram(sn *machine.Snapshot, persName string, steps []Step, keep []int, prefixes []string) *Result {
	return o.finishProgram(machine.Fork(sn), persName, steps, keep, prefixes)
}

// finishProgram runs the observable tail — the fuzz program, the
// namespace walk, a sync, the crash image audit — on m, which it
// consumes (Close), and captures the Result.
func (o *Options) finishProgram(m machine.Machine, persName string, steps []Step, keep []int, prefixes []string) *Result {
	res := &Result{}
	m.SpawnProc("fuzz", 0, func(p unix.Proc) {
		o.execute(p, persName, steps, keep, prefixes, res)
	})
	m.Run()
	m.SpawnProc("observe", 0, func(p unix.Proc) {
		observe(p, "", 0, &res.Tree, make([]byte, 8192))
	})
	m.Run()
	m.SpawnProc("syncer", 0, func(p unix.Proc) { _ = p.Sync() })
	m.Run()
	res.Cycles = m.Now()
	res.Digest = m.Kern().Trace.Digest() // nil-safe: untraced runs fold to the offset basis
	img := m.Crash(m.Now())
	fsName, fsCfg := m.FSSpec()
	// AuditImage consumes img; Close returns the machine's page frames
	// and media blocks to the shared pool. Together they make a seed ×
	// personality cell ~allocation-neutral at steady state.
	res.Audit = cffs.AuditImage(img, o.DiskBlocks, fsName, fsCfg)
	m.Close()
	return res
}

// bootSnapshots boots each personality once to its post-boot quiescent
// point, snapshots it, and closes the machine (the snapshot owns the
// frozen pages and blocks; copy-on-write keeps them valid). In
// determinism mode the snapshot machine boots with a live tracer and a
// clone of the campaign's fault plan, so forks resume both exactly
// where boot left them. The returned func releases every snapshot.
func (o *Options) bootSnapshots() (func(), error) {
	o.snaps = make(map[machine.Personality]*machine.Snapshot)
	release := func() {
		for _, sn := range o.snaps {
			sn.Release()
		}
		o.snaps = nil
	}
	for _, pers := range machine.Personalities() {
		var tr *trace.Tracer
		var plan *fault.Plan
		if o.Faults != nil {
			tr = trace.New()
			plan = o.Faults.Clone()
		}
		m, err := machine.New(machine.Config{
			Personality: pers,
			DiskBlocks:  o.DiskBlocks,
			MemPages:    o.MemPages,
			Faults:      plan,
			Trace:       tr,
		})
		if err != nil {
			release()
			return nil, err
		}
		sn, err := m.Snapshot()
		if err != nil {
			m.Close()
			release()
			return nil, fmt.Errorf("difftest: post-boot snapshot of %s: %w", pers, err)
		}
		m.Close()
		o.snaps[pers] = sn
	}
	return release, nil
}

// compare reports the first observable disagreement between two
// results, or "" if they match. Cycle counts and trace digests are
// only compared when exact is set (determinism mode: same personality,
// same costs).
func compare(a, b *Result, exact bool) string {
	n := len(a.Outcomes)
	if len(b.Outcomes) < n {
		n = len(b.Outcomes)
	}
	for i := 0; i < n; i++ {
		if a.Outcomes[i] != b.Outcomes[i] {
			return fmt.Sprintf("step %s vs %s", a.Outcomes[i], b.Outcomes[i])
		}
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		return fmt.Sprintf("outcome count %d vs %d", len(a.Outcomes), len(b.Outcomes))
	}
	if d := diffLines(a.Tree, b.Tree); d != "" {
		return "final tree: " + d
	}
	if exact {
		if d := diffLines(a.Audit, b.Audit); d != "" {
			return "audit: " + d
		}
		if a.Cycles != b.Cycles {
			return fmt.Sprintf("cycle count %d vs %d", a.Cycles, b.Cycles)
		}
		if a.Digest != b.Digest {
			return fmt.Sprintf("trace digest %x vs %x", a.Digest, b.Digest)
		}
	}
	return ""
}

func diffLines(a, b []string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("%q vs %q", a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d lines", len(a), len(b))
	}
	return ""
}

// allSteps returns [0..n).
func allSteps(n int) []int {
	keep := make([]int, n)
	for i := range keep {
		keep[i] = i
	}
	return keep
}

// Validate rejects negative program counts and lengths (zero selects
// the default). Fuzz and Replay apply it; command-line front ends call
// it to reject bad flags before running anything.
func (o Options) Validate() error {
	switch {
	case o.Seeds < 0:
		return fmt.Errorf("difftest: negative program count %d", o.Seeds)
	case o.Steps < 0:
		return fmt.Errorf("difftest: negative program length %d", o.Steps)
	}
	return nil
}

// Fuzz runs the configured campaign. It returns the first divergence
// found — already shrunk, with its replay token — or nil if every seed
// agreed. Infrastructure errors (a personality failing to boot) are
// returned as err.
//
// Seeds are independent (each boots fresh machines), so with
// opt.Parallel > 1 they fan out across a worker pool; logging,
// first-divergence selection and shrinking all happen in seed order in
// the calling goroutine, keeping the output byte-identical to a
// serial run.
func Fuzz(opt Options) (*Divergence, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	o := opt.Defaults()
	if o.Snapshot {
		release, err := o.bootSnapshots()
		if err != nil {
			return nil, err
		}
		defer release()
	}
	if o.Faults != nil {
		return fuzzDeterminism(&o)
	}
	type seedResult struct {
		div *Divergence
		err error
	}
	var (
		firstErr error
		firstDiv *Divergence
		divSeed  uint64
	)
	parallel.Stream(o.workers(), o.Seeds, func(i int) seedResult {
		seed := o.BaseSeed + uint64(i)
		steps := Generate(seed, o.Steps)
		div, err := o.diffOnce(seed, steps, allSteps(len(steps)))
		return seedResult{div, err}
	}, func(i int, r seedResult) bool {
		seed := o.BaseSeed + uint64(i)
		if r.err != nil {
			firstErr = r.err
			return false
		}
		if r.div != nil {
			o.logf("seed %d: divergence (%s vs %s) — shrinking", seed, r.div.A, r.div.B)
			firstDiv, divSeed = r.div, seed
			return false
		}
		if (i+1)%50 == 0 {
			o.logf("%d/%d seeds clean", i+1, o.Seeds)
		}
		return true
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if firstDiv != nil {
		// Shrinking bisects one program repeatedly — inherently serial.
		return o.shrinkDivergence(divSeed, Generate(divSeed, o.Steps), firstDiv)
	}
	return nil, nil
}

// workers resolves Options.Parallel for parallel.Stream: difftest
// treats values <= 1 (including the zero value) as serial so existing
// callers keep their exact behavior; explicit counts pass through.
// Callers wanting "one worker per CPU" resolve it themselves with
// parallel.Workers(0), as cmd/xok-bench does for its -parallel flag.
func (o *Options) workers() int {
	if o.Parallel <= 1 {
		return 1
	}
	return o.Parallel
}

// diffOnce runs one program (the kept subset) on every personality and
// cross-compares. The first personality is the reference; audit
// cleanliness is checked per personality.
func (o *Options) diffOnce(seed uint64, steps []Step, keep []int) (*Divergence, error) {
	var ref *Result
	var refName string
	prefixes := stepPrefixes(steps, keep)
	for _, pers := range machine.Personalities() {
		name := pers.String()
		var res *Result
		if sn := o.snaps[pers]; sn != nil {
			res = o.forkProgram(sn, name, steps, keep, prefixes)
		} else {
			var err error
			res, err = o.runProgram(pers, steps, keep, prefixes, nil, false)
			if err != nil {
				return nil, err
			}
		}
		if len(res.Audit) != 0 {
			return &Divergence{
				Seed: seed, Steps: len(steps), Keep: keep,
				A: name, B: "fsck",
				Where: fmt.Sprintf("audit not clean: %s", res.Audit[0]),
			}, nil
		}
		if ref == nil {
			ref, refName = res, name
			continue
		}
		if d := compare(ref, res, false); d != "" {
			return &Divergence{
				Seed: seed, Steps: len(steps), Keep: keep,
				A: refName, B: name, Where: d,
			}, nil
		}
	}
	return nil, nil
}

// shrinkDivergence reduces the failing program to a minimal set of
// steps that still reproduces a divergence between div.A and div.B,
// and attaches the replay token.
func (o *Options) shrinkDivergence(seed uint64, steps []Step, div *Divergence) (*Divergence, error) {
	var persA, persB machine.Personality
	for _, p := range machine.Personalities() {
		if p.String() == div.A {
			persA = p
		}
		if p.String() == div.B {
			persB = p
		}
	}
	reproduces := func(keep []int) bool {
		if div.B == "fsck" {
			res, err := o.runProgram(persA, steps, keep, nil, nil, false)
			return err == nil && len(res.Audit) != 0
		}
		prefixes := stepPrefixes(steps, keep)
		ra, errA := o.runProgram(persA, steps, keep, prefixes, nil, false)
		rb, errB := o.runProgram(persB, steps, keep, prefixes, nil, false)
		if errA != nil || errB != nil {
			return false
		}
		return compare(ra, rb, false) != ""
	}
	keep := shrink(div.Keep, reproduces)
	div.Keep = keep
	div.Token = encodeToken(seed, len(steps), keep)
	// Re-derive the divergence description from the minimal program.
	final, err := o.diffOnce(seed, steps, keep)
	if err == nil && final != nil {
		final.Token = div.Token
		return final, nil
	}
	return div, nil
}

// Replay re-runs a replay token bit-identically: same seed, same
// program, same kept steps — and the same fault plan when opt.Faults
// carries one. It returns the divergence the token reproduces (nil if
// it no longer diverges, e.g. after a fix).
func Replay(token string, opt Options) (*Divergence, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	o := opt.Defaults()
	seed, n, keep, err := ParseToken(token)
	if err != nil {
		return nil, err
	}
	steps := Generate(seed, n)
	if o.Faults != nil {
		for _, pers := range machine.Personalities() {
			div, err := o.determinismOnce(pers, seed, steps, keep)
			if err != nil || div != nil {
				if div != nil {
					div.Token = token
				}
				return div, err
			}
		}
		return nil, nil
	}
	div, err := o.diffOnce(seed, steps, keep)
	if div != nil {
		div.Token = token
	}
	return div, err
}
