package apps

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"xok/internal/sim"
	"xok/internal/unix"
)

// Per-byte CPU costs (cycles/byte), calibrated to late-90s software on
// a 200-MHz Pentium Pro.
const (
	// CPUGzip: gzip -6 compresses at ~1 MB/s.
	CPUGzip = 190
	// CPUGunzip: decompression at ~4.5 MB/s.
	CPUGunzip = 45
	// CPUGcc: cc1 chews ~160 KB/s of source (lcc's 3.5 MB ≈ 22 s of
	// compute, matching Figure 2's near-identical gcc bars).
	CPUGcc = 1250
	// CPUDiff: byte comparison of two streams.
	CPUDiff = 14
	// CPUGrep: Boyer-Moore scan.
	CPUGrep = 9
	// CPUWc: word counting.
	CPUWc = 8
	// CPUCksum: CRC over the file.
	CPUCksum = 6
	// gzipRatio is output/input for compression (and its inverse for
	// decompression bookkeeping).
	gzipRatioNum, gzipRatioDen = 3, 10
	// objRatio is object-file bytes per source byte.
	objRatioNum, objRatioDen = 9, 20
)

const ioChunk = 65536 // cp and friends use 64-KB buffers

// Cp copies one file ("copy small file" / "copy large file", Table 1).
func Cp(p unix.Proc, src, dst string) error {
	in, err := p.Open(src)
	if err != nil {
		return err
	}
	defer p.Close(in)
	out, err := p.Create(dst, 6)
	if err != nil {
		return err
	}
	defer p.Close(out)
	buf := make([]byte, ioChunk)
	for {
		n, err := p.Read(in, buf)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if _, err := p.Write(out, buf[:n]); err != nil {
			return err
		}
	}
}

// CpR recursively copies a tree ("copy large tree", Table 1).
func CpR(p unix.Proc, srcDir, dstDir string) error {
	if err := p.Mkdir(dstDir, 7); err != nil {
		return err
	}
	ents, err := p.Readdir(srcDir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		s := srcDir + "/" + ent.Name
		d := dstDir + "/" + ent.Name
		if ent.IsDir {
			if err := CpR(p, s, d); err != nil {
				return err
			}
		} else if err := Cp(p, s, d); err != nil {
			return err
		}
	}
	return nil
}

// Gunzip decompresses src into dst. The simulation cannot run DEFLATE
// backwards from synthetic bytes, so the caller supplies the logical
// plaintext (generated from the same TreeSpec); the program still
// reads every compressed byte, charges decompression CPU, and writes
// every output byte through the file system.
func Gunzip(p unix.Proc, src, dst string, plaintext []byte) error {
	compressed, err := ReadFile(p, src)
	if err != nil {
		return err
	}
	p.Compute(sim.Time(len(compressed) * CPUGunzip))
	out, err := p.Create(dst, 6)
	if err != nil {
		return err
	}
	defer p.Close(out)
	for off := 0; off < len(plaintext); off += ioChunk {
		end := off + ioChunk
		if end > len(plaintext) {
			end = len(plaintext)
		}
		if _, err := p.Write(out, plaintext[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// Gzip compresses src into dst at the standard ratio.
func Gzip(p unix.Proc, src, dst string) error {
	in, err := p.Open(src)
	if err != nil {
		return err
	}
	defer p.Close(in)
	out, err := p.Create(dst, 6)
	if err != nil {
		return err
	}
	defer p.Close(out)
	buf := make([]byte, ioChunk)
	for {
		n, err := p.Read(in, buf)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		p.Compute(sim.Time(n * CPUGzip))
		outN := n * gzipRatioNum / gzipRatioDen
		if _, err := p.Write(out, buf[:outN]); err != nil {
			return err
		}
	}
}

// PaxR unpacks an archive into destDir ("unpack file", Table 1),
// parsing the real archive stream.
func PaxR(p unix.Proc, archive, destDir string) error {
	data, err := ReadFile(p, archive)
	if err != nil {
		return err
	}
	if err := p.Mkdir(destDir, 7); err != nil {
		return err
	}
	off := 0
	for off < len(data) {
		kind, name, size, next, err := ParseArchiveHeader(data, off)
		if err != nil {
			return err
		}
		off = next
		switch kind {
		case 'D':
			if err := p.Mkdir(destDir+"/"+name, 7); err != nil {
				return err
			}
		case 'F':
			if off+size > len(data) {
				return fmt.Errorf("apps: archive truncated in %s", name)
			}
			if err := WriteFile(p, destDir+"/"+name, data[off:off+size]); err != nil {
				return err
			}
			off += size
		default:
			return fmt.Errorf("apps: bad archive entry kind %c", kind)
		}
	}
	return nil
}

// PaxW packs a tree into an archive ("pack tree", Table 1).
func PaxW(p unix.Proc, dir, archive string) error {
	out, err := p.Create(archive, 6)
	if err != nil {
		return err
	}
	defer p.Close(out)
	var walk func(rel string) error
	walk = func(rel string) error {
		full := dir
		if rel != "" {
			full = dir + "/" + rel
		}
		ents, err := p.Readdir(full)
		if err != nil {
			return err
		}
		for _, ent := range ents {
			childRel := ent.Name
			if rel != "" {
				childRel = rel + "/" + ent.Name
			}
			if ent.IsDir {
				hdr := fmt.Sprintf("%s D %s 0\n", archiveMagic, childRel)
				if _, err := p.Write(out, []byte(hdr)); err != nil {
					return err
				}
				if err := walk(childRel); err != nil {
					return err
				}
				continue
			}
			hdr := fmt.Sprintf("%s F %s %d\n", archiveMagic, childRel, ent.Size)
			if _, err := p.Write(out, []byte(hdr)); err != nil {
				return err
			}
			data, err := ReadFile(p, dir+"/"+childRel)
			if err != nil {
				return err
			}
			if _, err := p.Write(out, data); err != nil {
				return err
			}
		}
		return nil
	}
	return walk("")
}

// Diff compares two trees ("diff large tree", Table 1), reading both
// sides fully and charging the comparison. Returns true if they
// differ.
func Diff(p unix.Proc, a, b string) (bool, error) {
	ents, err := p.Readdir(a)
	if err != nil {
		return false, err
	}
	differs := false
	for _, ent := range ents {
		pa, pb := a+"/"+ent.Name, b+"/"+ent.Name
		if ent.IsDir {
			d, err := Diff(p, pa, pb)
			if err != nil {
				return false, err
			}
			differs = differs || d
			continue
		}
		da, err := ReadFile(p, pa)
		if err != nil {
			return false, err
		}
		db, err := ReadFile(p, pb)
		if err != nil {
			return false, err
		}
		p.Compute(sim.Time((len(da) + len(db)) * CPUDiff / 2))
		if len(da) != len(db) {
			differs = true
			continue
		}
		for i := range da {
			if da[i] != db[i] {
				differs = true
				break
			}
		}
	}
	return differs, nil
}

// Gcc "compiles" every .c file under dir: read source, burn compiler
// CPU, write the object file next to it ("compile", Table 1).
func Gcc(p unix.Proc, dir string) error {
	ents, err := p.Readdir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		path := dir + "/" + ent.Name
		if ent.IsDir {
			if err := Gcc(p, path); err != nil {
				return err
			}
			continue
		}
		if !isC(ent.Name) {
			continue
		}
		src, err := ReadFile(p, path)
		if err != nil {
			return err
		}
		p.Compute(sim.Time(len(src) * CPUGcc))
		obj := path[:len(path)-2] + ".o"
		objData := make([]byte, len(src)*objRatioNum/objRatioDen)
		if err := WriteFile(p, obj, objData); err != nil {
			return err
		}
	}
	return nil
}

func isC(name string) bool {
	return len(name) > 2 && name[len(name)-2:] == ".c"
}

// RmGlob removes files under dir matching the suffix, recursively
// ("delete binary files": rm *.o).
func RmGlob(p unix.Proc, dir, suffix string) error {
	ents, err := p.Readdir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		path := dir + "/" + ent.Name
		if ent.IsDir {
			if err := RmGlob(p, path, suffix); err != nil {
				return err
			}
			continue
		}
		if len(ent.Name) >= len(suffix) && ent.Name[len(ent.Name)-len(suffix):] == suffix {
			if err := p.Unlink(path); err != nil {
				return err
			}
		}
	}
	return nil
}

// RmRF removes a whole tree ("delete the created source tree").
func RmRF(p unix.Proc, dir string) error {
	ents, err := p.Readdir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		path := dir + "/" + ent.Name
		if ent.IsDir {
			if err := RmRF(p, path); err != nil {
				return err
			}
		} else if err := p.Unlink(path); err != nil {
			return err
		}
	}
	return p.Rmdir(dir)
}

// Grep scans a file (or tree) for a pattern, charging scan CPU.
// Returns the number of non-overlapping matches (over the synthetic
// content this is typically zero; the cost is the point). An empty
// pattern is rejected before anything is read.
func Grep(p unix.Proc, path string, pattern string) (int, error) {
	if pattern == "" {
		return 0, errors.New("apps: grep: empty pattern")
	}
	st, err := p.Stat(path)
	if err != nil {
		return 0, err
	}
	if st.IsDir {
		total := 0
		ents, err := p.Readdir(path)
		if err != nil {
			return 0, err
		}
		for _, ent := range ents {
			n, err := Grep(p, path+"/"+ent.Name, pattern)
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	}
	data, err := ReadFile(p, path)
	if err != nil {
		return 0, err
	}
	p.Compute(sim.Time(len(data) * CPUGrep))
	return bytes.Count(data, []byte(pattern)), nil
}

// Wc counts words in the listed files.
func Wc(p unix.Proc, paths ...string) (int, error) {
	words := 0
	for _, path := range paths {
		data, err := ReadFile(p, path)
		if err != nil {
			return 0, err
		}
		p.Compute(sim.Time(len(data) * CPUWc))
		inWord := false
		for _, c := range data {
			isSpace := c == ' ' || c == '\n' || c == '\t'
			if !isSpace && !inWord {
				words++
			}
			inWord = !isSpace
		}
	}
	return words, nil
}

// Cksum computes a checksum over the files `repeat` times ("compute a
// checksum many times over a small set of files" — the CPU-heavy pool
// member in Figure 4). Every repeat re-reads and is charged in full; a
// file whose bytes read back unchanged folds in the hash it had last
// time instead of rehashing them.
func Cksum(p unix.Proc, repeat int, paths ...string) (uint32, error) {
	var sum uint32
	last := make([]cksumPart, len(paths))
	for r := 0; r < repeat; r++ {
		for i, path := range paths {
			data, err := ReadFile(p, path)
			if err != nil {
				return 0, err
			}
			p.Compute(sim.Time(len(data) * CPUCksum))
			c := &last[i]
			if c.data == nil || !bytes.Equal(data, c.data) {
				*c = newCksumPart(data)
			}
			sum = sum*c.pow + c.hash
		}
	}
	return sum, nil
}

// cksumPart is one file's contribution to Cksum's running sum. The
// byte loop s = s*31 + b over data equals s*31^len(data) + h, where h
// is the loop's result from zero, so a re-read of the same bytes costs
// one comparison instead of a rehash. data is ReadFile's own fresh
// slice; keeping it aliases nothing.
type cksumPart struct {
	data      []byte
	hash, pow uint32
}

func newCksumPart(data []byte) cksumPart {
	c := cksumPart{data: data, pow: 1}
	for _, b := range data {
		c.hash = c.hash*31 + uint32(b)
		c.pow *= 31
	}
	return c
}

// Sor and Tsp are pure functions of their arguments, and the Figure 4
// and 5 job mixes run the same few instances over and over. Their
// results are memoised process-wide; a repeat call replays the
// identical p.Compute charges (one per iteration or round, each a
// scheduling point) without redoing the arithmetic. Concurrent cold
// callers may both compute; they store the same value.
var (
	memoMu  sync.Mutex
	sorMemo = map[[2]int]float64{}
	tspMemo = map[[2]int]float64{}
)

// memoised returns compute's value for key from m, running compute on
// a miss. Either way p is charged cost once per each of the rounds.
func memoised(p unix.Proc, m map[[2]int]float64, key [2]int, rounds int, cost sim.Time,
	compute func(round func()) float64) float64 {
	memoMu.Lock()
	v, ok := m[key]
	memoMu.Unlock()
	if ok {
		for r := 0; r < rounds; r++ {
			p.Compute(cost)
		}
		return v
	}
	v = compute(func() { p.Compute(cost) })
	memoMu.Lock()
	m[key] = v
	memoMu.Unlock()
	return v
}

// Tsp solves a traveling-salesman instance by 2-opt over a random
// tour: pure CPU (Figure 4 pool).
func Tsp(p unix.Proc, cities, rounds int) float64 {
	// ~40 cycles per inner-loop comparison on the target machine.
	cost := sim.Time(cities * cities / 2 * 40)
	return memoised(p, tspMemo, [2]int{cities, rounds}, rounds, cost,
		func(round func()) float64 { return tsp(cities, rounds, round) })
}

// tsp is Tsp's arithmetic; round runs after each 2-opt round.
func tsp(cities, rounds int, round func()) float64 {
	rng := sim.NewRNG(uint64(cities)*2654435761 + 1)
	xs := make([]float64, cities)
	ys := make([]float64, cities)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	tour := rng.Perm(cities)
	dist := func(a, b int) float64 {
		dx, dy := xs[a]-xs[b], ys[a]-ys[b]
		return dx*dx + dy*dy
	}
	best := 0.0
	for r := 0; r < rounds; r++ {
		for i := 0; i < cities-2; i++ {
			for j := i + 2; j < cities-1; j++ {
				a, b, c, d := tour[i], tour[i+1], tour[j], tour[j+1]
				if dist(a, c)+dist(b, d) < dist(a, b)+dist(c, d) {
					for lo, hi := i+1, j; lo < hi; lo, hi = lo+1, hi-1 {
						tour[lo], tour[hi] = tour[hi], tour[lo]
					}
				}
			}
		}
		round()
	}
	for i := 0; i < cities-1; i++ {
		best += dist(tour[i], tour[i+1])
	}
	return best
}

// Sor iteratively solves a Laplace equation by successive
// overrelaxation on an n x n grid: pure CPU (Figure 4 pool).
func Sor(p unix.Proc, n, iters int) float64 {
	// ~12 cycles per stencil update (FP adds + multiply).
	cost := sim.Time((n - 2) * (n - 2) * 12)
	return memoised(p, sorMemo, [2]int{n, iters}, iters, cost,
		func(iter func()) float64 { return sor(n, iters, iter) })
}

// sor is Sor's arithmetic; iter runs after each sweep.
func sor(n, iters int, iter func()) float64 {
	grid := make([]float64, n*n)
	for i := 0; i < n; i++ {
		grid[i] = 1.0 // hot top edge
	}
	const omega = 1.25
	for it := 0; it < iters; it++ {
		for y := 1; y < n-1; y++ {
			for x := 1; x < n-1; x++ {
				i := y*n + x
				v := (grid[i-1] + grid[i+1] + grid[i-n] + grid[i+n]) / 4
				grid[i] += omega * (v - grid[i])
			}
		}
		iter()
	}
	return grid[n*n/2+n/2]
}
