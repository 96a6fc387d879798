package xn

import (
	"math/bits"

	"xok/internal/disk"
)

// bitmap is XN's free map: bit set = block free. LibFSes read it to
// control their own layout; only XN writes it.
type bitmap struct {
	words []uint64
	n     int64
}

func newBitmap(n int64) *bitmap {
	return &bitmap{words: make([]uint64, (n+63)/64), n: n}
}

func (b *bitmap) get(i int64) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

func (b *bitmap) set(i int64, v bool) {
	if i < 0 || i >= b.n {
		return
	}
	if v {
		b.words[i/64] |= 1 << (uint(i) % 64)
	} else {
		b.words[i/64] &^= 1 << (uint(i) % 64)
	}
}

// setRange sets bits [lo, hi), clipped to the map, a word at a time:
// mkfs marks the whole volume free on every boot.
func (b *bitmap) setRange(lo, hi int64, v bool) {
	for i := max(lo, 0); i < min(hi, b.n); {
		off := uint(i % 64)
		n := min(min(hi, b.n)-i, 64-int64(off))
		mask := ^uint64(0) >> (64 - uint(n)) << off
		if v {
			b.words[i/64] |= mask
		} else {
			b.words[i/64] &^= mask
		}
		i += n
	}
}

func (b *bitmap) count() int64 {
	var c int64
	for _, w := range b.words {
		for w != 0 {
			w &= w - 1
			c++
		}
	}
	return c
}

// findRun locates `count` consecutive free blocks at or after hint,
// wrapping around once. Returns (start, ok).
func (b *bitmap) findRun(hint, count int64) (int64, bool) {
	if count <= 0 || count > b.n {
		return 0, false
	}
	if hint < 0 || hint >= b.n {
		hint = 0
	}
	check := func(lo, hi int64) (int64, bool) {
		run := int64(0)
		for i := lo; i < hi; i++ {
			if b.get(i) {
				run++
				if run == count {
					return i - count + 1, true
				}
			} else {
				run = 0
			}
		}
		return 0, false
	}
	if s, ok := check(hint, b.n); ok {
		return s, true
	}
	return check(0, hint+count) // wrap (overlap covers runs crossing hint)
}

// blockSet is an ordered set of block numbers: a bitmap plus a summary
// level in which bit j of sum[i] is set iff words[64*i+j] != 0. An
// ascending walk (next) reads the summary words and the words holding
// members, so its cost follows the set's size rather than the volume's.
// Both levels grow on demand: a set whose members sit low on a large
// volume pays for the range it touched.
type blockSet struct {
	words []uint64
	sum   []uint64
}

func (s *blockSet) add(b disk.BlockNo) {
	w := int(b >> 6)
	if w >= len(s.words) {
		s.grow(w)
	}
	s.words[w] |= 1 << (uint(b) & 63)
	s.sum[w>>6] |= 1 << (uint(w) & 63)
}

func (s *blockSet) remove(b disk.BlockNo) {
	w := int(b >> 6)
	if w >= len(s.words) {
		return
	}
	s.words[w] &^= 1 << (uint(b) & 63)
	if s.words[w] == 0 {
		s.sum[w>>6] &^= 1 << (uint(w) & 63)
	}
}

// grow makes word w addressable, at least doubling and keeping
// len(words) a whole number of summary words.
func (s *blockSet) grow(w int) {
	n := (max(2*len(s.words), w+1) + 63) &^ 63
	words := make([]uint64, n)
	copy(words, s.words)
	sum := make([]uint64, n/64)
	copy(sum, s.sum)
	s.words, s.sum = words, sum
}

// next returns the smallest member >= b, or -1 if there is none.
func (s *blockSet) next(b disk.BlockNo) disk.BlockNo {
	w := int(b >> 6)
	if w >= len(s.words) {
		return -1
	}
	if m := s.words[w] >> (uint(b) & 63); m != 0 {
		return b + disk.BlockNo(bits.TrailingZeros64(m))
	}
	w++
	for i := w >> 6; i < len(s.sum); i++ {
		m := s.sum[i]
		if i == w>>6 {
			m &= ^uint64(0) << (uint(w) & 63)
		}
		if m != 0 {
			wi := i<<6 + bits.TrailingZeros64(m)
			return disk.BlockNo(wi<<6 + bits.TrailingZeros64(s.words[wi]))
		}
	}
	return -1
}
