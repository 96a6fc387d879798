// Package bsdos models the two monolithic 4.4BSD systems the paper
// compares against (FreeBSD 2.2.2 and OpenBSD 2.1), plus the
// OpenBSD/C-FFS variant (Costa Sapuntzakis's in-kernel port of C-FFS,
// Section 6).
//
// The same application programs run here as on ExOS, but every UNIX
// call is a kernel trap, and the file systems run inside the kernel:
//
//   - FreeBSD: native FFS (split inodes, no co-location, synchronous
//     metadata writes) with a unified buffer cache spanning memory;
//   - OpenBSD: native FFS with a small, non-unified buffer cache —
//     the property the paper credits for FreeBSD beating OpenBSD
//     under load (Section 8);
//   - OpenBSD/C-FFS: the C-FFS structural policies inside the OpenBSD
//     kernel.
//
// The block-bookkeeping substrate is shared with the exokernel build
// (internal/xn in FreeCost mode): here it stands in for ordinary
// in-kernel file system code, with no protection-boundary charging.
// What differs from Xok/ExOS is exactly what differed in the paper:
// kernel crossings on every call, in-kernel pipe machinery, FFS
// structure, and buffer cache architecture.
package bsdos

import (
	"fmt"

	"xok/internal/cap"
	"xok/internal/cffs"
	"xok/internal/fault"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/trace"
	"xok/internal/unix"
	"xok/internal/xn"
)

// Variant selects the modelled system.
type Variant int

// The three BSD configurations from the paper's evaluation.
const (
	FreeBSD Variant = iota
	OpenBSD
	OpenBSDCFFS
)

// String names the variant as the paper does.
func (v Variant) String() string {
	switch v {
	case FreeBSD:
		return "FreeBSD"
	case OpenBSD:
		return "OpenBSD"
	case OpenBSDCFFS:
		return "OpenBSD/C-FFS"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// openBSDCachePages is the small, non-unified buffer cache (OpenBSD
// 2.1 dedicated only a fixed few-MB buffer cache to file data, unlike
// FreeBSD's unified page cache — the difference Section 8 credits for
// FreeBSD beating OpenBSD under load).
const openBSDCachePages = 800

// Config sizes the machine.
type Config struct {
	DiskBlocks int64
	MemPages   int

	// Spindles > 1 builds the volume as a RAID-0 stripe set of that
	// many disks, StripeUnit blocks per unit (see kernel.Config).
	Spindles   int
	StripeUnit int64

	// Trace and Faults are handed straight to the kernel: the
	// observability sink and the deterministic fault plan (both nil by
	// default).
	Trace  *trace.Tracer
	Faults *fault.Plan

	// Eng attaches the machine to a shared event engine (nil = build a
	// private one); see kernel.Config.Eng.
	Eng *sim.Engine
}

// System is one booted BSD machine.
type System struct {
	K       *kernel.Kernel
	X       *xn.XN
	FS      *cffs.FS
	Variant Variant

	// FSCfg is the structural profile the file system was formatted
	// with (FFS or C-FFS), kept for forensic remounts (cffs.AuditImage
	// needs the same profile to re-attach the image).
	FSCfg cffs.Config

	nextPid int
}

// Boot builds the machine and formats its file system.
func Boot(v Variant, cfg Config) *System {
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 1 << 20
	}
	if cfg.MemPages == 0 {
		cfg.MemPages = 16384
	}
	k := kernel.New(kernel.Config{
		Name:       v.String(),
		TrapCost:   sim.CostTrapBSD,
		MemPages:   cfg.MemPages,
		DiskSize:   cfg.DiskBlocks,
		Spindles:   cfg.Spindles,
		StripeUnit: cfg.StripeUnit,
		Trace:      cfg.Trace,
		Faults:     cfg.Faults,
		Eng:        cfg.Eng,
	})
	x := xn.New(k)
	x.FreeCost = true   // in-kernel FS: no protection-boundary charging
	x.FlushBehind = 512 // the update daemon keeps dirty data bounded
	if v == OpenBSD || v == OpenBSDCFFS {
		x.MaxCachePages = openBSDCachePages
	}
	fsCfg := cffs.FFSConfig()
	if v == OpenBSDCFFS {
		fsCfg = cffs.DefaultConfig()
	}
	s := &System{K: k, X: x, Variant: v, FSCfg: fsCfg, nextPid: 1}
	k.Spawn("bsd-mkfs", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		fs, err := cffs.Mkfs(e, x, "ffs", fsCfg)
		if err != nil {
			panic("bsdos: mkfs failed: " + err.Error())
		}
		s.FS = fs
	})
	k.Run()
	return s
}

// Run drains the machine.
func (s *System) Run() { s.K.Run() }

// Now returns virtual time.
func (s *System) Now() sim.Time { return s.K.Now() }

// Stats exposes the machine counters.
func (s *System) Stats() *sim.Stats { return s.K.Stats }

// Spawn starts a top-level UNIX process.
func (s *System) Spawn(name string, uid uint16, main func(unix.Proc)) *Handle {
	pid := s.nextPid
	s.nextPid++
	h := &Handle{}
	h.env = s.K.Spawn(name, func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(uid)
		p := &Proc{s: s, e: e, pid: pid, uid: uid, fds: make(map[unix.FD]*file)}
		main(p)
		p.closeAll()
	})
	return h
}

// Handle identifies a spawned process.
type Handle struct{ env *kernel.Env }

// Env exposes the underlying environment.
func (h *Handle) Env() *kernel.Env { return h.env }

// Proc is one UNIX process on a BSD kernel: every call below traps.
type Proc struct {
	s   *System
	e   *kernel.Env
	pid int
	uid uint16

	fds    map[unix.FD]*file
	nextFD unix.FD
}

type fileKind uint8

const (
	kindFile fileKind = iota
	kindPipeR
	kindPipeW
)

type file struct {
	kind fileKind
	ref  cffs.Ref
	path string
	off  int64
	pipe *bsdPipe
}

// ErrBadFD reports an unknown descriptor — the canonical unix value,
// identical to what ExOS returns for the same misuse.
var ErrBadFD = unix.ErrBadFD

var _ unix.Proc = (*Proc)(nil)

// Env exposes the environment.
func (p *Proc) Env() *kernel.Env { return p.e }

// Getpid traps into the kernel (270 cycles on OpenBSD, Section 7.1).
func (p *Proc) Getpid() int {
	p.e.Syscall(sim.CostGetpidWork)
	return p.pid
}

// UID returns the process owner.
func (p *Proc) UID() uint16 { return p.uid }

// Compute charges application CPU time.
func (p *Proc) Compute(c sim.Time) { p.e.Use(c) }

// Now returns virtual time.
func (p *Proc) Now() sim.Time { return p.s.K.Now() }

func (p *Proc) allocFD(f *file) unix.FD {
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = f
	return fd
}

func (p *Proc) lookupFD(fd unix.FD) (*file, error) {
	f, ok := p.fds[fd]
	if !ok {
		return nil, ErrBadFD
	}
	return f, nil
}

// Open traps and resolves the path in the kernel.
func (p *Proc) Open(path string) (unix.FD, error) {
	p.e.Syscall(400) // trap + namei
	ref, in, err := p.s.FS.Lookup(p.e, path)
	if err != nil {
		return -1, err
	}
	if in.Kind == cffs.KindDir {
		return -1, cffs.ErrIsDir
	}
	return p.allocFD(&file{kind: kindFile, ref: ref, path: path}), nil
}

// Create traps, truncating any existing file.
func (p *Proc) Create(path string, mode uint32) (unix.FD, error) {
	p.e.Syscall(600)
	if _, _, err := p.s.FS.Lookup(p.e, path); err == nil {
		if err := p.s.FS.Unlink(p.e, path); err != nil {
			return -1, err
		}
	}
	ref, err := p.s.FS.Create(p.e, path, uint32(p.uid), uint32(p.uid), mode)
	if err != nil {
		return -1, err
	}
	return p.allocFD(&file{kind: kindFile, ref: ref, path: path}), nil
}

// Read traps and copies through the kernel buffer cache.
func (p *Proc) Read(fd unix.FD, buf []byte) (int, error) {
	f, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	p.e.Syscall(150)
	switch f.kind {
	case kindPipeR:
		return f.pipe.read(p.e, buf)
	case kindPipeW:
		return 0, unix.ErrBadFD // read from write end
	}
	n, err := p.s.FS.ReadAt(p.e, f.ref, f.off, buf)
	f.off += int64(n)
	return n, err
}

// Write traps and copies through the kernel buffer cache.
func (p *Proc) Write(fd unix.FD, buf []byte) (int, error) {
	f, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	p.e.Syscall(150)
	switch f.kind {
	case kindPipeW:
		return f.pipe.write(p.e, buf)
	case kindPipeR:
		return 0, unix.ErrBadFD // write to read end
	}
	n, err := p.s.FS.WriteAt(p.e, f.ref, f.off, buf)
	f.off += int64(n)
	return n, err
}

// Seek traps.
func (p *Proc) Seek(fd unix.FD, off int64, whence int) (int64, error) {
	f, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if f.kind != kindFile {
		return 0, unix.ErrSeekPipe
	}
	p.e.Syscall(80)
	pos := f.off
	switch whence {
	case unix.SeekSet:
		pos = off
	case unix.SeekCur:
		pos += off
	case unix.SeekEnd:
		// Follow the descriptor's inode, not its path (see exos.Seek).
		in, err := p.s.FS.RefInode(p.e, f.ref)
		if err != nil {
			return 0, err
		}
		pos = int64(in.Size) + off
	default:
		return 0, unix.ErrInval
	}
	if pos < 0 {
		// A negative offset must not become the descriptor position:
		// a later read would slice a page at a negative index.
		return 0, unix.ErrInval
	}
	f.off = pos
	return f.off, nil
}

// Close traps.
func (p *Proc) Close(fd unix.FD) error {
	f, err := p.lookupFD(fd)
	if err != nil {
		return err
	}
	p.e.Syscall(100)
	delete(p.fds, fd)
	if f.pipe != nil {
		f.pipe.closeEnd(p.e, f.kind == kindPipeW)
	}
	return nil
}

// Stat traps.
func (p *Proc) Stat(path string) (unix.Stat, error) {
	p.e.Syscall(300)
	in, err := p.s.FS.Stat(p.e, path)
	if err != nil {
		return unix.Stat{}, err
	}
	return unix.Stat{
		Size: int64(in.Size), Mode: in.Mode, UID: in.UID, GID: in.GID,
		MTime: in.MTime, IsDir: in.Kind == cffs.KindDir,
	}, nil
}

// Mkdir traps.
func (p *Proc) Mkdir(path string, mode uint32) error {
	p.e.Syscall(600)
	return p.s.FS.Mkdir(p.e, path, uint32(p.uid), uint32(p.uid), mode)
}

// Readdir traps (getdents).
func (p *Proc) Readdir(path string) ([]unix.DirEnt, error) {
	p.e.Syscall(400)
	ents, err := p.s.FS.Readdir(p.e, path)
	if err != nil {
		return nil, err
	}
	out := make([]unix.DirEnt, len(ents))
	for i, in := range ents {
		out[i] = unix.DirEnt{Name: in.Name, IsDir: in.Kind == cffs.KindDir,
			IsLink: in.Kind == cffs.KindLink, Size: int64(in.Size)}
	}
	return out, nil
}

// Unlink traps.
func (p *Proc) Unlink(path string) error {
	p.e.Syscall(500)
	return p.s.FS.Unlink(p.e, path)
}

// Rmdir traps.
func (p *Proc) Rmdir(path string) error {
	p.e.Syscall(500)
	return p.s.FS.Rmdir(p.e, path)
}

// Rename traps.
func (p *Proc) Rename(oldPath, newPath string) error {
	p.e.Syscall(600)
	return p.s.FS.Rename(p.e, oldPath, newPath)
}

// Chmod traps.
func (p *Proc) Chmod(path string, mode uint32) error {
	p.e.Syscall(500)
	return p.s.FS.Chmod(p.e, path, mode)
}

// Symlink traps.
func (p *Proc) Symlink(target, path string) error {
	p.e.Syscall(600)
	return p.s.FS.Symlink(p.e, target, path, uint32(p.uid), uint32(p.uid))
}

// Sync traps.
func (p *Proc) Sync() error {
	p.e.Syscall(200)
	return p.s.FS.Sync(p.e)
}

// Pipe traps and allocates the kernel pipe object.
func (p *Proc) Pipe() (unix.FD, unix.FD, error) {
	p.e.Syscall(800)
	pi := &bsdPipe{s: p.s, buf: make([]byte, unix.PipeCapacity), readers: 1, writers: 1}
	r := p.allocFD(&file{kind: kindPipeR, pipe: pi})
	w := p.allocFD(&file{kind: kindPipeW, pipe: pi})
	return r, w, nil
}

// Spawn is fork+exec: "less than one millisecond on OpenBSD"
// (Section 6.2) plus the exec overlay.
func (p *Proc) Spawn(name string, f func(unix.Proc)) (unix.Handle, error) {
	p.s.K.Stats.Inc(sim.CtrForks)
	p.e.Syscall(0)
	p.e.Use(sim.CostForkBSD + sim.CostExec)
	pid := p.s.nextPid
	p.s.nextPid++
	uid := p.uid
	s := p.s
	// Fork semantics: the child inherits the parent's descriptors.
	inherited := make(map[unix.FD]*file, len(p.fds))
	for fd, fl := range p.fds {
		inherited[fd] = fl
		if fl.pipe != nil {
			fl.pipe.addRef(fl.kind == kindPipeW)
		}
	}
	nextFD := p.nextFD
	env := s.K.Spawn(name, func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(uid)
		child := &Proc{s: s, e: e, pid: pid, uid: uid, fds: inherited, nextFD: nextFD}
		f(child)
		child.closeAll()
	})
	return &procHandle{parent: p, env: env}, nil
}

// closeAll releases every descriptor at process exit.
func (p *Proc) closeAll() {
	for fd := unix.FD(0); fd < p.nextFD; fd++ {
		f, ok := p.fds[fd]
		if !ok {
			continue
		}
		delete(p.fds, fd)
		if f.pipe != nil {
			f.pipe.closeEnd(p.e, f.kind == kindPipeW)
		}
	}
}

type procHandle struct {
	parent *Proc
	env    *kernel.Env
}

// Wait blocks until the child exits.
func (h *procHandle) Wait() {
	h.parent.e.Syscall(200)
	h.parent.e.WaitFor(h.env)
}

// Env exposes the child's environment.
func (h *procHandle) Env() *kernel.Env { return h.env }
