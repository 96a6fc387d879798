package xn

import (
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := newBitmap(200)
	if b.count() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	b.setRange(10, 20, true)
	if b.count() != 10 {
		t.Fatalf("count = %d, want 10", b.count())
	}
	if !b.get(10) || !b.get(19) || b.get(20) || b.get(9) {
		t.Fatal("range bounds wrong")
	}
	b.set(15, false)
	if b.get(15) || b.count() != 9 {
		t.Fatal("clear failed")
	}
	// Out-of-range accesses are inert.
	b.set(-1, true)
	b.set(1000, true)
	if b.get(-1) || b.get(1000) {
		t.Fatal("out-of-range bits set")
	}
}

func TestBitmapFindRun(t *testing.T) {
	b := newBitmap(100)
	b.setRange(0, 100, true)
	b.setRange(30, 40, false) // hole

	// Run entirely after the hint.
	s, ok := b.findRun(10, 5)
	if !ok || s != 10 {
		t.Fatalf("findRun(10,5) = %d, %v", s, ok)
	}
	// Run straddling the hole must land after it.
	s, ok = b.findRun(28, 15)
	if !ok || s != 40 {
		t.Fatalf("findRun(28,15) = %d, %v", s, ok)
	}
	// Wrapping: hint near the end, run exists only at the start.
	b2 := newBitmap(100)
	b2.setRange(0, 10, true)
	s, ok = b2.findRun(90, 8)
	if !ok || s != 0 {
		t.Fatalf("wrap findRun = %d, %v", s, ok)
	}
	// Impossible requests.
	if _, ok := b2.findRun(0, 11); ok {
		t.Fatal("found an 11-run in a 10-run bitmap")
	}
	if _, ok := b2.findRun(0, 0); ok {
		t.Fatal("zero-length run reported found")
	}
	if _, ok := b2.findRun(0, 1000); ok {
		t.Fatal("run longer than bitmap reported found")
	}
}

func TestBitmapFindRunProperty(t *testing.T) {
	// For random bit patterns, any run findRun returns must (a) be
	// entirely free and (b) have the requested length within bounds.
	f := func(pattern []bool, hint8, count8 uint8) bool {
		n := int64(len(pattern))
		if n == 0 {
			return true
		}
		b := newBitmap(n)
		for i, v := range pattern {
			b.set(int64(i), v)
		}
		hint := int64(hint8) % n
		count := int64(count8)%8 + 1
		s, ok := b.findRun(hint, count)
		if !ok {
			// Verify there really is no run of that length anywhere.
			run := int64(0)
			for i := int64(0); i < n; i++ {
				if b.get(i) {
					run++
					if run >= count {
						return false // findRun missed one
					}
				} else {
					run = 0
				}
			}
			return true
		}
		if s < 0 || s+count > n {
			return false
		}
		for i := s; i < s+count; i++ {
			if !b.get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBitmapSetRangeMatchesBits: the word-at-a-time setRange equals
// setting each bit of the range, out-of-range ends included.
func TestBitmapSetRangeMatchesBits(t *testing.T) {
	f := func(lo, hi int16, v bool, seed uint64) bool {
		const n = 300
		got, want := newBitmap(n), newBitmap(n)
		for i := range got.words {
			got.words[i] = seed * uint64(2*i+1)
		}
		got.words[len(got.words)-1] &= 1<<(n%64) - 1
		copy(want.words, got.words)
		l, h := int64(lo)%(n+40)-20, int64(hi)%(n+40)-20
		got.setRange(l, h, v)
		for i := l; i < h; i++ {
			want.set(i, v)
		}
		for i := range got.words {
			if got.words[i] != want.words[i] {
				t.Logf("setRange(%d, %d, %v): word %d %#x, bit by bit %#x", l, h, v, i, got.words[i], want.words[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
