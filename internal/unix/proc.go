package unix

import (
	"xok/internal/cap"
	"xok/internal/cffs"
	"xok/internal/kernel"
	"xok/internal/sim"
)

// Op names a UNIX call whose fixed cost a personality bills through
// OS.Charge. The file-system work behind a call is charged by the file
// system itself, the same code on every personality.
type Op uint8

// The calls Process charges, one per unix.Proc method that has a
// fixed cost of its own (Spawn's is OS.Fork).
const (
	OpGetpid Op = iota
	OpOpen
	OpCreate
	OpRead
	OpWrite
	OpSeek
	OpClose
	OpStat
	OpMkdir
	OpReaddir
	OpUnlink
	OpRmdir
	OpRename
	OpChmod
	OpSymlink
	OpSync
	OpPipe
	OpWait
)

// OS is a personality's half of a UNIX process: everything in which
// Xok/ExOS and the BSD models differ. Process calls it at fixed points
// and owns everything else, so the personalities differ in cost, never
// in semantics.
type OS interface {
	// Charge bills op's fixed cost: a kernel trap on the BSDs, a
	// library call (or nothing) on ExOS. Process calls it once per
	// call, after the descriptor lookup for descriptor calls and
	// before any file-system work for path calls.
	Charge(e *kernel.Env, op Op)
	// SharedWrite bills one write to the descriptor table or the
	// process map, which ExOS keeps in shared memory (Section 5.2.1).
	SharedWrite(e *kernel.Env)
	// Resolve maps a path to the file system holding it and the path
	// within that file system (the ExOS mount table).
	Resolve(path string) (*cffs.FS, string)
	// NewPipe builds a pipe's data path. count is the pipe's buffered
	// byte count, for a wakeup predicate to watch.
	NewPipe(e *kernel.Env, count *int64) PipeOS
	// Fork bills the parent's fork+exec and returns the child's pid.
	Fork(e *kernel.Env) int
	// Enter runs in a new process's environment before its body and
	// returns the Proc the body sees; forked is false for a process
	// the machine starts. Exit runs after the process has closed its
	// descriptors.
	Enter(p *Process, forked bool) Proc
	Exit(p *Process)
}

// Process is one UNIX process: its descriptor table and the semantics
// of every call in Proc, written once for all personalities. The
// personality's OS supplies the costs and the pieces that differ.
type Process struct {
	os  OS
	e   *kernel.Env
	pid int
	uid uint16

	fds    map[FD]*file
	nextFD FD
}

type fileKind uint8

const (
	kindFile fileKind = iota
	kindPipeR
	kindPipeW
)

// file is an open-file object. Fork shares it between parent and
// child, offset included.
type file struct {
	kind fileKind
	fs   *cffs.FS
	ref  cffs.Ref
	off  int64
	pipe *Pipe
}

var _ Proc = (*Process)(nil)

// Launch starts a process with an empty descriptor table running main
// as uid on k, the way a machine starts its first processes.
func Launch(k *kernel.Kernel, os OS, name string, pid int, uid uint16, main func(Proc)) *Started {
	p := &Process{os: os, pid: pid, uid: uid, fds: make(map[FD]*file)}
	return &Started{env: p.start(k, name, false, main)}
}

// start spawns p's environment and runs main in it, then closes what
// main left open: UNIX closes a dying process's files, and pipes must
// see their ends drop.
func (p *Process) start(k *kernel.Kernel, name string, forked bool, main func(Proc)) *kernel.Env {
	return k.Spawn(name, func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(p.uid)
		p.e = e
		main(p.os.Enter(p, forked))
		p.closeAll()
		p.os.Exit(p)
	})
}

// Started is a running process as the code that started it sees it.
type Started struct{ env *kernel.Env }

// Env exposes the process's environment (the workload launcher's
// wait-any and tests use it).
func (s *Started) Env() *kernel.Env { return s.env }

// child is a forked process as its parent sees it.
type child struct {
	Started
	parent *Process
}

// Wait blocks the parent until the child exits (wait4 semantics).
func (c *child) Wait() {
	c.parent.os.Charge(c.parent.e, OpWait)
	c.parent.e.WaitFor(c.env)
}

// Env exposes the process's environment, for specialized applications
// that bypass the UNIX layer (the whole point of an exokernel) and for
// the workload launcher's wait-any.
func (p *Process) Env() *kernel.Env { return p.e }

// PID returns the process id without the cost of Getpid.
func (p *Process) PID() int { return p.pid }

// Getpid is the classic trivial call (Section 7.1).
func (p *Process) Getpid() int {
	p.os.Charge(p.e, OpGetpid)
	return p.pid
}

// UID returns the process owner.
func (p *Process) UID() uint16 { return p.uid }

// Compute charges application CPU time.
func (p *Process) Compute(c sim.Time) { p.e.Use(c) }

// Now returns virtual time.
func (p *Process) Now() sim.Time { return p.e.Kernel().Now() }

func (p *Process) allocFD(f *file) FD {
	p.os.SharedWrite(p.e)
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = f
	return fd
}

func (p *Process) lookupFD(fd FD) (*file, error) {
	f, ok := p.fds[fd]
	if !ok {
		return nil, ErrBadFD
	}
	return f, nil
}

// Open opens an existing file.
func (p *Process) Open(path string) (FD, error) {
	p.os.Charge(p.e, OpOpen)
	fs, rel := p.os.Resolve(path)
	ref, in, err := fs.Lookup(p.e, rel)
	if err != nil {
		return -1, err
	}
	if in.Kind == cffs.KindDir {
		return -1, cffs.ErrIsDir
	}
	return p.allocFD(&file{kind: kindFile, fs: fs, ref: ref}), nil
}

// Create makes (or truncates-by-recreating) a file and opens it.
func (p *Process) Create(path string, mode uint32) (FD, error) {
	p.os.Charge(p.e, OpCreate)
	fs, rel := p.os.Resolve(path)
	if _, _, err := fs.Lookup(p.e, rel); err == nil {
		if err := fs.Unlink(p.e, rel); err != nil {
			return -1, err
		}
	}
	ref, err := fs.Create(p.e, rel, uint32(p.uid), uint32(p.uid), mode)
	if err != nil {
		return -1, err
	}
	return p.allocFD(&file{kind: kindFile, fs: fs, ref: ref}), nil
}

// Read reads from the descriptor's current offset.
func (p *Process) Read(fd FD, buf []byte) (int, error) {
	f, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	p.os.Charge(p.e, OpRead)
	switch f.kind {
	case kindPipeR:
		return f.pipe.read(p.e, buf)
	case kindPipeW:
		return 0, ErrBadFD // read from write end
	}
	n, err := f.fs.ReadAt(p.e, f.ref, f.off, buf)
	f.off += int64(n)
	return n, err
}

// Write writes at the descriptor's current offset.
func (p *Process) Write(fd FD, buf []byte) (int, error) {
	f, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	p.os.Charge(p.e, OpWrite)
	switch f.kind {
	case kindPipeW:
		return f.pipe.write(p.e, buf)
	case kindPipeR:
		return 0, ErrBadFD // write to read end
	}
	n, err := f.fs.WriteAt(p.e, f.ref, f.off, buf)
	f.off += int64(n)
	return n, err
}

// Seek repositions the descriptor.
func (p *Process) Seek(fd FD, off int64, whence int) (int64, error) {
	f, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if f.kind != kindFile {
		return 0, ErrSeekPipe
	}
	p.os.Charge(p.e, OpSeek)
	pos := f.off
	switch whence {
	case SeekSet:
		pos = off
	case SeekCur:
		pos += off
	case SeekEnd:
		// Size comes from the descriptor's inode, not its path: the
		// descriptor must follow the file across rename and go stale
		// (not resolve a new occupant) after unlink.
		in, err := f.fs.RefInode(p.e, f.ref)
		if err != nil {
			return 0, err
		}
		pos = int64(in.Size) + off
	default:
		return 0, ErrInval
	}
	if pos < 0 {
		// A negative offset must not become the descriptor position:
		// a later read would slice a page at a negative index.
		return 0, ErrInval
	}
	f.off = pos
	return f.off, nil
}

// Close releases the descriptor.
func (p *Process) Close(fd FD) error {
	f, err := p.lookupFD(fd)
	if err != nil {
		return err
	}
	p.os.Charge(p.e, OpClose)
	p.os.SharedWrite(p.e)
	delete(p.fds, fd)
	if f.pipe != nil {
		f.pipe.closeEnd(p.e, f.kind == kindPipeW)
	}
	return nil
}

// closeAll releases every descriptor at process exit, in descriptor
// order.
func (p *Process) closeAll() {
	for fd := FD(0); fd < p.nextFD; fd++ {
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

// Stat returns file metadata.
func (p *Process) Stat(path string) (Stat, error) {
	p.os.Charge(p.e, OpStat)
	fs, rel := p.os.Resolve(path)
	in, err := fs.Stat(p.e, rel)
	if err != nil {
		return Stat{}, err
	}
	return Stat{
		Size: int64(in.Size), Mode: in.Mode, UID: in.UID, GID: in.GID,
		MTime: in.MTime, IsDir: in.Kind == cffs.KindDir,
	}, nil
}

// Mkdir creates a directory.
func (p *Process) Mkdir(path string, mode uint32) error {
	p.os.Charge(p.e, OpMkdir)
	fs, rel := p.os.Resolve(path)
	return fs.Mkdir(p.e, rel, uint32(p.uid), uint32(p.uid), mode)
}

// Readdir lists a directory.
func (p *Process) Readdir(path string) ([]DirEnt, error) {
	p.os.Charge(p.e, OpReaddir)
	fs, rel := p.os.Resolve(path)
	ents, err := fs.Readdir(p.e, rel)
	if err != nil {
		return nil, err
	}
	out := make([]DirEnt, len(ents))
	for i, in := range ents {
		out[i] = DirEnt{Name: in.Name, IsDir: in.Kind == cffs.KindDir,
			IsLink: in.Kind == cffs.KindLink, Size: int64(in.Size)}
	}
	return out, nil
}

// Unlink removes a file.
func (p *Process) Unlink(path string) error {
	p.os.Charge(p.e, OpUnlink)
	fs, rel := p.os.Resolve(path)
	return fs.Unlink(p.e, rel)
}

// Rmdir removes an empty directory.
func (p *Process) Rmdir(path string) error {
	p.os.Charge(p.e, OpRmdir)
	fs, rel := p.os.Resolve(path)
	return fs.Rmdir(p.e, rel)
}

// Rename renames a file. Renames across file systems are rejected
// (EXDEV).
func (p *Process) Rename(oldPath, newPath string) error {
	p.os.Charge(p.e, OpRename)
	fs, from := p.os.Resolve(oldPath)
	toFS, to := p.os.Resolve(newPath)
	if fs != toFS {
		return ErrXDev
	}
	return fs.Rename(p.e, from, to)
}

// Chmod changes permission bits.
func (p *Process) Chmod(path string, mode uint32) error {
	p.os.Charge(p.e, OpChmod)
	fs, rel := p.os.Resolve(path)
	return fs.Chmod(p.e, rel, mode)
}

// Symlink creates a symbolic link.
func (p *Process) Symlink(target, path string) error {
	p.os.Charge(p.e, OpSymlink)
	fs, rel := p.os.Resolve(path)
	return fs.Symlink(p.e, target, rel, uint32(p.uid), uint32(p.uid))
}

// Sync flushes the machine's file systems. Every file system a process
// can reach shares the machine's one XN, so syncing the root's covers
// them all.
func (p *Process) Sync() error {
	p.os.Charge(p.e, OpSync)
	fs, _ := p.os.Resolve("/")
	return fs.Sync(p.e)
}

// Pipe creates a connected read/write descriptor pair.
func (p *Process) Pipe() (FD, FD, error) {
	p.os.Charge(p.e, OpPipe)
	pi := &Pipe{readers: 1, writers: 1}
	pi.os = p.os.NewPipe(p.e, &pi.count)
	r := p.allocFD(&file{kind: kindPipeR, pipe: pi})
	w := p.allocFD(&file{kind: kindPipeW, pipe: pi})
	return r, w, nil
}

// Spawn forks and execs a child running f. The child inherits the
// parent's descriptors, sharing the open-file objects and offsets.
func (p *Process) Spawn(name string, f func(Proc)) (Handle, error) {
	k := p.e.Kernel()
	k.Stats.Inc(sim.CtrForks)
	p.os.SharedWrite(p.e) // process map update
	c := &Process{os: p.os, pid: p.os.Fork(p.e), uid: p.uid,
		fds: make(map[FD]*file, len(p.fds)), nextFD: p.nextFD}
	for fd, fl := range p.fds {
		c.fds[fd] = fl
		if fl.pipe != nil {
			fl.pipe.addRef(fl.kind == kindPipeW)
		}
	}
	return &child{Started{c.start(k, name, true, f)}, p}, nil
}
