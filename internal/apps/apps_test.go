package apps

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"xok/internal/exos"
	"xok/internal/sim"
	"xok/internal/unix"
)

// run executes main in a process on a fresh Xok/ExOS machine.
func run(t *testing.T, main func(p unix.Proc) error) {
	t.Helper()
	s := exos.Boot(exos.Config{})
	var err error
	s.Spawn("app", 0, func(p unix.Proc) {
		err = main(p)
	})
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestLccTreeShape(t *testing.T) {
	spec := LccTree()
	total := spec.TotalBytes()
	if total < 2_500_000 || total > 5_000_000 {
		t.Fatalf("tree = %d bytes, want ~3.5 MB", total)
	}
	if len(spec.Files) < 150 || len(spec.Files) > 400 {
		t.Fatalf("tree = %d files", len(spec.Files))
	}
	arch := ArchiveBytes(spec)
	compressed := len(arch) * 3 / 10
	if compressed < 800_000 || compressed > 1_500_000 {
		t.Fatalf("compressed archive = %d bytes, want ~1.1 MB", compressed)
	}
	// Deterministic.
	if LccTree().TotalBytes() != total {
		t.Fatal("LccTree not deterministic")
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	spec := TreeSpec{
		Dirs: []string{"a", "b"},
		Files: []FileSpec{
			{Path: "a/x", Size: 5000},
			{Path: "b/y", Size: 12345},
			{Path: "top", Size: 1},
		},
	}
	arch := ArchiveBytes(spec)
	run(t, func(p unix.Proc) error {
		if err := WriteFile(p, "/t.tar", arch); err != nil {
			return err
		}
		if err := PaxR(p, "/t.tar", "/out"); err != nil {
			return err
		}
		for _, f := range spec.Files {
			st, err := p.Stat("/out/" + f.Path)
			if err != nil {
				return fmt.Errorf("stat %s: %w", f.Path, err)
			}
			if st.Size != int64(f.Size) {
				return fmt.Errorf("%s = %d bytes, want %d", f.Path, st.Size, f.Size)
			}
		}
		// Pack it back; unpack again; sizes must survive.
		if err := PaxW(p, "/out", "/t2.tar"); err != nil {
			return err
		}
		if err := PaxR(p, "/t2.tar", "/out2"); err != nil {
			return err
		}
		d, err := Diff(p, "/out", "/out2")
		if err != nil {
			return err
		}
		if d {
			return fmt.Errorf("pack/unpack round trip changed the tree")
		}
		return nil
	})
}

func TestCpPreservesBytes(t *testing.T) {
	run(t, func(p unix.Proc) error {
		data := make([]byte, 100_000)
		fillContent(data, 7)
		if err := WriteFile(p, "/src", data); err != nil {
			return err
		}
		if err := Cp(p, "/src", "/dst"); err != nil {
			return err
		}
		got, err := ReadFile(p, "/dst")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("copy corrupted data")
		}
		return nil
	})
}

func TestDiffDetectsDifference(t *testing.T) {
	run(t, func(p unix.Proc) error {
		if err := p.Mkdir("/a", 7); err != nil {
			return err
		}
		if err := p.Mkdir("/b", 7); err != nil {
			return err
		}
		if err := WriteFile(p, "/a/f", []byte("same content")); err != nil {
			return err
		}
		if err := WriteFile(p, "/b/f", []byte("same content")); err != nil {
			return err
		}
		d, err := Diff(p, "/a", "/b")
		if err != nil || d {
			return fmt.Errorf("identical dirs differ: %v, %v", d, err)
		}
		if err := WriteFile(p, "/b/f", []byte("other content")); err != nil {
			return err
		}
		d, err = Diff(p, "/a", "/b")
		if err != nil || !d {
			return fmt.Errorf("different dirs equal: %v, %v", d, err)
		}
		return nil
	})
}

func TestGccProducesObjects(t *testing.T) {
	run(t, func(p unix.Proc) error {
		if err := p.Mkdir("/src", 7); err != nil {
			return err
		}
		if err := WriteFile(p, "/src/a.c", make([]byte, 10000)); err != nil {
			return err
		}
		if err := WriteFile(p, "/src/b.txt", make([]byte, 5000)); err != nil {
			return err
		}
		if err := Gcc(p, "/src"); err != nil {
			return err
		}
		st, err := p.Stat("/src/a.o")
		if err != nil {
			return fmt.Errorf("object file missing: %w", err)
		}
		if st.Size != 10000*9/20 {
			return fmt.Errorf("object = %d bytes", st.Size)
		}
		if _, err := p.Stat("/src/b.o"); err == nil {
			return fmt.Errorf("gcc compiled a .txt file")
		}
		if err := RmGlob(p, "/src", ".o"); err != nil {
			return err
		}
		if _, err := p.Stat("/src/a.o"); err == nil {
			return fmt.Errorf("rm *.o left the object")
		}
		if _, err := p.Stat("/src/a.c"); err != nil {
			return fmt.Errorf("rm *.o removed a source: %w", err)
		}
		return nil
	})
}

func TestRmRFRemovesTree(t *testing.T) {
	run(t, func(p unix.Proc) error {
		spec := TreeSpec{
			Dirs:  []string{"x"},
			Files: []FileSpec{{Path: "x/a", Size: 100}, {Path: "b", Size: 200}},
		}
		if err := WriteTree(p, "/t", spec); err != nil {
			return err
		}
		if err := RmRF(p, "/t"); err != nil {
			return err
		}
		if _, err := p.Stat("/t"); err == nil {
			return fmt.Errorf("tree survived rm -rf")
		}
		return nil
	})
}

func TestGrepAndWc(t *testing.T) {
	run(t, func(p unix.Proc) error {
		content := []byte("one needle two needle three\nneedle")
		if err := WriteFile(p, "/f", content); err != nil {
			return err
		}
		n, err := Grep(p, "/f", "needle")
		if err != nil {
			return err
		}
		if n != 3 {
			return fmt.Errorf("grep = %d matches, want 3", n)
		}
		w, err := Wc(p, "/f")
		if err != nil {
			return err
		}
		if w != 6 {
			return fmt.Errorf("wc = %d words, want 6", w)
		}
		return nil
	})
}

func TestGzipShrinksGunzipRestoresSize(t *testing.T) {
	run(t, func(p unix.Proc) error {
		orig := make([]byte, 200_000)
		if err := WriteFile(p, "/in", orig); err != nil {
			return err
		}
		if err := Gzip(p, "/in", "/out.gz"); err != nil {
			return err
		}
		st, err := p.Stat("/out.gz")
		if err != nil {
			return err
		}
		if st.Size >= int64(len(orig)) || st.Size < int64(len(orig))/5 {
			return fmt.Errorf("compressed = %d bytes from %d", st.Size, len(orig))
		}
		if err := Gunzip(p, "/out.gz", "/restored", orig); err != nil {
			return err
		}
		st, err = p.Stat("/restored")
		if err != nil {
			return err
		}
		if st.Size != int64(len(orig)) {
			return fmt.Errorf("restored = %d bytes, want %d", st.Size, len(orig))
		}
		return nil
	})
}

func TestTspAndSorAreCPUBound(t *testing.T) {
	s := exos.Boot(exos.Config{})
	var tspTime, sorTime int64
	s.Spawn("tsp", 0, func(p unix.Proc) {
		start := p.Now()
		if got := Tsp(p, 60, 20); got <= 0 {
			t.Error("tsp returned non-positive tour length")
		}
		tspTime = int64(p.Now() - start)
	})
	s.Run()
	s.Spawn("sor", 0, func(p unix.Proc) {
		start := p.Now()
		Sor(p, 50, 50)
		sorTime = int64(p.Now() - start)
	})
	s.Run()
	if tspTime == 0 || sorTime == 0 {
		t.Fatalf("CPU jobs consumed no time: tsp=%d sor=%d", tspTime, sorTime)
	}
}

func TestCksum(t *testing.T) {
	run(t, func(p unix.Proc) error {
		if err := WriteFile(p, "/f", []byte{1, 2, 3}); err != nil {
			return err
		}
		a, err := Cksum(p, 2, "/f")
		if err != nil {
			return err
		}
		b, err := Cksum(p, 2, "/f")
		if err != nil {
			return err
		}
		if a != b {
			return fmt.Errorf("cksum not deterministic")
		}
		return nil
	})
}

func TestGrepRejectsEmptyPattern(t *testing.T) {
	run(t, func(p unix.Proc) error {
		if err := WriteFile(p, "/f", []byte("abc")); err != nil {
			return err
		}
		start := p.Now()
		if _, err := Grep(p, "/f", ""); err == nil {
			return fmt.Errorf("grep with an empty pattern succeeded")
		}
		if p.Now() != start {
			return fmt.Errorf("rejected grep charged %d cycles", p.Now()-start)
		}
		return nil
	})
}

// computeLog wraps a process and records every Compute charge.
type computeLog struct {
	unix.Proc
	charges []sim.Time
}

func (c *computeLog) Compute(cycles sim.Time) {
	c.charges = append(c.charges, cycles)
	c.Proc.Compute(cycles)
}

// memoRun runs f on a fresh machine and reports its result, the
// virtual time it took and the Compute charges it made.
func memoRun(f func(p unix.Proc) float64) (float64, sim.Time, []sim.Time) {
	s := exos.Boot(exos.Config{})
	var v float64
	var took sim.Time
	log := &computeLog{}
	s.Spawn("app", 0, func(p unix.Proc) {
		log.Proc = p
		start := p.Now()
		v = f(log)
		took = p.Now() - start
	})
	s.Run()
	return v, took, log.charges
}

// TestSorTspMemoExact: a memoised call returns the value of the
// arithmetic and charges exactly what the cold call charged, one
// Compute per iteration or round.
func TestSorTspMemoExact(t *testing.T) {
	cases := []struct {
		name  string
		memo  map[[2]int]float64
		key   [2]int
		call  func(p unix.Proc) float64
		ref   func() float64
		calls int
	}{
		{"sor", sorMemo, [2]int{37, 11},
			func(p unix.Proc) float64 { return Sor(p, 37, 11) },
			func() float64 { return sor(37, 11, func() {}) }, 11},
		{"tsp", tspMemo, [2]int{29, 7},
			func(p unix.Proc) float64 { return Tsp(p, 29, 7) },
			func() float64 { return tsp(29, 7, func() {}) }, 7},
	}
	for _, c := range cases {
		memoMu.Lock()
		delete(c.memo, c.key)
		memoMu.Unlock()
		cold, coldTook, coldCharges := memoRun(c.call)
		memoMu.Lock()
		_, stored := c.memo[c.key]
		memoMu.Unlock()
		if !stored {
			t.Fatalf("%s: cold call stored nothing", c.name)
		}
		warm, warmTook, warmCharges := memoRun(c.call)
		if want := c.ref(); cold != want || warm != want {
			t.Errorf("%s: cold %v, warm %v, arithmetic %v", c.name, cold, warm, want)
		}
		if coldTook == 0 || warmTook != coldTook {
			t.Errorf("%s: cold took %d cycles, warm %d", c.name, coldTook, warmTook)
		}
		if len(coldCharges) != c.calls || !slices.Equal(warmCharges, coldCharges) {
			t.Errorf("%s: cold charges %v, warm %v, want %d calls", c.name, coldCharges, warmCharges, c.calls)
		}
	}
}

// refCksum is Cksum's byte loop over each read in order.
func refCksum(reads [][]byte) uint32 {
	var sum uint32
	for _, data := range reads {
		for _, c := range data {
			sum = sum*31 + uint32(c)
		}
	}
	return sum
}

// TestCksumMatchesByteLoop: over seeded random files, repeat counts
// and path lists with repeats, Cksum equals the plain byte loop.
func TestCksumMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		files := make([][]byte, 1+rng.Intn(4))
		for i := range files {
			files[i] = make([]byte, rng.Intn(3*sim.PageSize))
			rng.Read(files[i])
		}
		var paths []string
		var order []int
		for n := 1 + rng.Intn(6); n > 0; n-- {
			i := rng.Intn(len(files))
			paths = append(paths, fmt.Sprintf("/f%d", i))
			order = append(order, i)
		}
		repeat := rng.Intn(5)
		var reads [][]byte
		for r := 0; r < repeat; r++ {
			for _, i := range order {
				reads = append(reads, files[i])
			}
		}
		run(t, func(p unix.Proc) error {
			for i, data := range files {
				if err := WriteFile(p, fmt.Sprintf("/f%d", i), data); err != nil {
					return err
				}
			}
			got, err := Cksum(p, repeat, paths...)
			if err != nil {
				return err
			}
			if want := refCksum(reads); got != want {
				return fmt.Errorf("trial %d: cksum %#x, byte loop %#x", trial, got, want)
			}
			return nil
		})
	}
}

// readLog wraps a process and records the bytes each Open's reads
// returned, in order.
type readLog struct {
	unix.Proc
	fds   map[unix.FD]int
	reads [][]byte
	paths []string
}

func (r *readLog) Open(path string) (unix.FD, error) {
	fd, err := r.Proc.Open(path)
	if err == nil {
		r.fds[fd] = len(r.reads)
		r.reads = append(r.reads, nil)
		r.paths = append(r.paths, path)
	}
	return fd, err
}

func (r *readLog) Read(fd unix.FD, buf []byte) (int, error) {
	n, err := r.Proc.Read(fd, buf)
	if i, ok := r.fds[fd]; ok && n > 0 {
		r.reads[i] = append(r.reads[i], buf[:n]...)
	}
	return n, err
}

// TestCksumSeesRewrite: a second process rewrites one of the files
// while Cksum runs, so some re-reads differ from the bytes kept and
// must be hashed afresh. The result still equals the byte loop over
// exactly what was read.
func TestCksumSeesRewrite(t *testing.T) {
	s := exos.Boot(exos.Config{})
	const size = 2 * sim.PageSize
	content := func(v byte) []byte { return bytes.Repeat([]byte{v}, size) }
	if err := func() (err error) {
		s.Spawn("setup", 0, func(p unix.Proc) {
			for _, f := range []string{"/a", "/b"} {
				if err = WriteFile(p, f, content(1)); err != nil {
					return
				}
			}
		})
		s.Run()
		return err
	}(); err != nil {
		t.Fatal(err)
	}
	var got uint32
	var cerr, werr error
	log := &readLog{fds: map[unix.FD]int{}}
	s.Spawn("cksum", 0, func(p unix.Proc) {
		log.Proc = p
		got, cerr = Cksum(log, 40, "/a", "/b")
	})
	s.Spawn("writer", 0, func(p unix.Proc) {
		for v := byte(2); v < 8 && werr == nil; v++ {
			p.Compute(size * CPUCksum * 7)
			werr = WriteFile(p, "/b", content(v))
		}
	})
	s.Run()
	if cerr != nil || werr != nil {
		t.Fatalf("cksum: %v, writer: %v", cerr, werr)
	}
	if want := refCksum(log.reads); got != want {
		t.Fatalf("cksum %#x, byte loop over the reads %#x", got, want)
	}
	changes := 0
	var prev []byte
	for i, data := range log.reads {
		if log.paths[i] == "/b" {
			if prev != nil && !bytes.Equal(prev, data) {
				changes++
			}
			prev = data
		}
	}
	if changes < 2 {
		t.Fatalf("the writer changed /b between reads %d times; the test needs at least 2", changes)
	}
}

// TestMemoConcurrentCallers: machines on parallel workers share the
// memo tables. Cold and warm callers racing on the same instances all
// get the arithmetic's value and the same charges (run under -race by
// `make race`).
func TestMemoConcurrentCallers(t *testing.T) {
	memoMu.Lock()
	delete(sorMemo, [2]int{41, 9})
	delete(tspMemo, [2]int{31, 5})
	memoMu.Unlock()
	call := func(p unix.Proc) float64 { return Sor(p, 41, 9) + Tsp(p, 31, 5) }
	want := sor(41, 9, func() {}) + tsp(31, 5, func() {})
	type result struct {
		v       float64
		took    sim.Time
		charges []sim.Time
	}
	results := make([]result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, took, charges := memoRun(call)
			results[i] = result{v, took, charges}
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r.v != want || r.took != results[0].took || !slices.Equal(r.charges, results[0].charges) {
			t.Errorf("caller %d: value %v (want %v), took %d, charges %v; caller 0 took %d, charges %v",
				i, r.v, want, r.took, r.charges, results[0].took, results[0].charges)
		}
	}
}
