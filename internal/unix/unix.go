// Package unix defines the POSIX-flavored process interface that the
// simulated applications (internal/apps) are written against. The same
// application binaries — cp, gzip, pax, gcc, diff, ... — run unmodified
// on every OS personality in the repository:
//
//   - internal/exos: the ExOS library operating system on Xok, where
//     these calls are unprivileged library code;
//   - internal/bsdos: the monolithic FreeBSD/OpenBSD models, where
//     every call traps into the kernel.
//
// This mirrors the paper's methodology: identical unmodified UNIX
// applications measured across Xok/ExOS, OpenBSD/C-FFS, OpenBSD and
// FreeBSD (Section 6).
package unix

import (
	"errors"

	"xok/internal/sim"
)

// FD is a file descriptor: a small integer naming an entry in the
// process's descriptor table.
type FD int

// Canonical errors. Every personality returns these exact values for
// the corresponding misuse, so the same program observes the same
// errno on Xok/ExOS and on the BSD models — the paper's systems differ
// in cost, never in semantics. internal/difftest's cross-personality
// fuzzer compares errors by identity and flags any personality that
// invents its own.
var (
	// ErrBadFD is EBADF: the descriptor is closed, was never open, or
	// names the wrong end of a pipe for the operation.
	ErrBadFD = errors.New("bad file descriptor")
	// ErrInval is EINVAL: a bad whence, or a seek that would land
	// before the start of the file.
	ErrInval = errors.New("invalid argument")
	// ErrSeekPipe is ESPIPE: seek on a pipe.
	ErrSeekPipe = errors.New("illegal seek")
	// ErrPipe is EPIPE: write to a pipe with no read end open.
	ErrPipe = errors.New("broken pipe")
	// ErrXDev is EXDEV: rename across file systems.
	ErrXDev = errors.New("cross-device link")
)

// PipeCapacity is the ring size, in bytes, of every personality's
// pipe: a write that does not fit blocks until the reader drains it.
const PipeCapacity = 16384

// Whence values for Seek.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Stat describes a file.
type Stat struct {
	Size  int64
	Mode  uint32
	UID   uint32
	GID   uint32
	MTime uint32
	IsDir bool
}

// DirEnt is one directory entry.
type DirEnt struct {
	Name   string
	IsDir  bool
	IsLink bool
	Size   int64
}

// Handle represents a spawned child process.
type Handle interface {
	// Wait blocks until the child exits.
	Wait()
}

// Proc is the interface one running process sees. Implementations are
// not safe for concurrent use: a process is single-threaded and its
// methods may only be called from its own body function.
type Proc interface {
	// Getpid returns the process id (the classic "trivial syscall"
	// microbenchmark, Section 7.1).
	Getpid() int

	// UID returns the user the process runs as.
	UID() uint16

	// Compute charges pure CPU work (application computation between
	// I/O operations).
	Compute(cycles sim.Time)

	// Now returns the current virtual time.
	Now() sim.Time

	// Files.
	Open(path string) (FD, error)
	Create(path string, mode uint32) (FD, error)
	Read(fd FD, buf []byte) (int, error)
	Write(fd FD, buf []byte) (int, error)
	Seek(fd FD, off int64, whence int) (int64, error)
	Close(fd FD) error
	Stat(path string) (Stat, error)
	Mkdir(path string, mode uint32) error
	Readdir(path string) ([]DirEnt, error)
	Unlink(path string) error
	Rmdir(path string) error
	Rename(oldPath, newPath string) error
	Chmod(path string, mode uint32) error
	// Symlink creates a symbolic link at path pointing to target.
	// Links resolve when they are the final component of a path;
	// Unlink and Rename operate on the link itself.
	Symlink(target, path string) error
	Sync() error

	// Pipe creates a connected read/write descriptor pair.
	Pipe() (r, w FD, err error)

	// Spawn forks and execs a child running f; the cost model charges
	// the personality's fork+exec price.
	Spawn(name string, f func(Proc)) (Handle, error)
}
