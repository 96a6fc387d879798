package disk

import (
	"math/rand"
	"sort"
	"testing"

	"xok/internal/sim"
)

// refQueue is the sort-based C-SCAN pick that pickNext's linear scan
// replaced: stable-sort the queue by physical position (the sorted
// order persists between picks), take the first request at or past the
// head, else wrap to the first overall.
type refQueue []*Request

func (q *refQueue) pick(d *Disk, head BlockNo) *Request {
	s := *q
	sort.SliceStable(s, func(i, j int) bool { return d.physOf(s[i].Block) < d.physOf(s[j].Block) })
	idx := 0
	for i, r := range s {
		if d.physOf(r.Block) >= head {
			idx = i
			break
		}
	}
	r := s[idx]
	*q = append(s[:idx], s[idx+1:]...)
	return r
}

// TestCSCANMatchesSortReference interleaves random arrivals and picks on
// a single drive and on spindle 0 of a striped set, with positions drawn
// from a narrow range so equal-position ties are common, and checks
// every pick against the sort-based reference.
func TestCSCANMatchesSortReference(t *testing.T) {
	for _, striped := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var opts []Option
			if striped {
				opts = append(opts, WithStriping(4, 8))
			}
			d := New(sim.NewEngine(), nil, 1<<16, opts...)
			sp := &spindle{}
			var ref refQueue
			head := BlockNo(0)
			for step := 0; step < 2000; step++ {
				if len(sp.queue) == 0 || rng.Intn(3) != 0 {
					var b BlockNo
					for {
						b = BlockNo(rng.Intn(256))
						if d.spindleOf(b) == 0 {
							break
						}
					}
					r := &Request{Block: b, Count: 1 + rng.Intn(4)}
					sp.queue = append(sp.queue, r)
					ref = append(ref, r)
					continue
				}
				sp.head = head
				got, want := d.pickNext(sp), ref.pick(d, head)
				if got != want {
					t.Fatalf("striped=%v seed %d step %d head %d: picked block %d, reference block %d",
						striped, seed, step, head, got.Block, want.Block)
				}
				head = d.physOf(got.Block) + BlockNo(got.Count)
			}
		}
	}
}

// BenchmarkDiskPickDeepQueue is one C-SCAN pick from a 512-deep queue
// (flush-behind's steady state hands the driver a few hundred writes at
// once), refilled so the depth holds.
func BenchmarkDiskPickDeepQueue(b *testing.B) {
	d := New(sim.NewEngine(), nil, 1<<20)
	rng := rand.New(rand.NewSource(1))
	sp := &spindle{}
	reqs := make([]Request, 1024)
	for i := range reqs {
		reqs[i] = Request{Block: BlockNo(rng.Intn(1 << 20)), Count: 1}
	}
	for i := 0; i < 512; i++ {
		sp.queue = append(sp.queue, &reqs[i])
	}
	next := 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := d.pickNext(sp)
		sp.head = d.physOf(r.Block) + BlockNo(r.Count)
		sp.queue = append(sp.queue, &reqs[next%len(reqs)])
		next++
	}
}
