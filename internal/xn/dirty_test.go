package xn

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"xok/internal/cap"
	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/udf"
)

// The dirty index (dirty, flushable) replaces a walk of the whole
// registry map plus a sort. The reference below is that walk, kept
// here so the index can be checked against it.

// refDirtyBlocks is DirtyBlocks without the index: every dirty
// resident registry entry, sorted.
func refDirtyBlocks(x *XN) []disk.BlockNo {
	var out []disk.BlockNo
	for b, en := range x.reg {
		if en.Dirty && en.State == StateResident {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refFlushPick is maybeFlushBehind's choice without the index: walk the
// sorted dirty list and take up to limit unlocked, resident, untainted
// blocks that are not already in flight.
func refFlushPick(x *XN, dirty []disk.BlockNo, limit int) []disk.BlockNo {
	var pick []disk.BlockNo
	for _, b := range dirty {
		en := x.reg[b]
		if en.LockedBy != NoEnv || en.State != StateResident || en.flushing {
			continue
		}
		if x.taintCheck(en) != nil {
			continue
		}
		pick = append(pick, b)
		if len(pick) >= limit {
			break
		}
	}
	return pick
}

func members(s *blockSet) []disk.BlockNo {
	var out []disk.BlockNo
	for b := s.next(0); b >= 0; b = s.next(b + 1) {
		out = append(out, b)
	}
	return out
}

func flushingSet(x *XN) map[disk.BlockNo]bool {
	m := make(map[disk.BlockNo]bool)
	for b, en := range x.reg {
		if en.flushing {
			m[b] = true
		}
	}
	return m
}

// checkIndex reports where the dirty index disagrees with the
// registry flags or with the reference walk. Checks return errors
// rather than failing the test: they run inside environment bodies,
// where t.Fatal would strand the scheduler.
func checkIndex(x *XN, step string) error {
	var wantDirty, wantFlushable []disk.BlockNo
	for b, en := range x.reg {
		if en.Dirty {
			wantDirty = append(wantDirty, b)
			if !en.flushing {
				wantFlushable = append(wantFlushable, b)
			}
		}
	}
	slices.Sort(wantDirty)
	slices.Sort(wantFlushable)
	if got := members(&x.dirty); !slices.Equal(got, wantDirty) {
		return fmt.Errorf("%s: dirty index %v, registry %v", step, got, wantDirty)
	}
	if got := members(&x.flushable); !slices.Equal(got, wantFlushable) {
		return fmt.Errorf("%s: flushable index %v, registry %v", step, got, wantFlushable)
	}
	if got, want := x.DirtyBlocks(), refDirtyBlocks(x); !slices.Equal(got, want) {
		return fmt.Errorf("%s: DirtyBlocks %v, reference %v", step, got, want)
	}
	if x.DirtyCount() != len(wantDirty) {
		return fmt.Errorf("%s: DirtyCount %d, %d dirty entries", step, x.DirtyCount(), len(wantDirty))
	}
	return nil
}

// markDirtyChecked runs MarkDirty with a nil environment (no charge, so
// nothing else runs in between) and checks the blocks flush-behind
// started are exactly the reference's pick for the same state.
func markDirtyChecked(x *XN, b disk.BlockNo, step string) error {
	en := x.reg[b]
	dirty := refDirtyBlocks(x)
	count := x.dirtyCount
	if !en.Dirty {
		count++
		i, _ := slices.BinarySearch(dirty, b)
		dirty = slices.Insert(dirty, i, b)
	}
	var want []disk.BlockNo
	if x.FlushBehind > 0 && count > x.FlushBehind {
		want = refFlushPick(x, dirty, count-x.FlushBehind/2)
	}
	before := flushingSet(x)
	if err := x.MarkDirty(nil, b); err != nil {
		return fmt.Errorf("%s: MarkDirty(%d): %v", step, b, err)
	}
	var got []disk.BlockNo
	for f := range flushingSet(x) {
		if !before[f] {
			got = append(got, f)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s: flush-behind started %v, reference picks %v", step, got, want)
	}
	return nil
}

// tnSetRecordStart builds the Mod that repoints record i at start.
func tnSetRecordStart(i int, start disk.BlockNo) []Mod {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(start))
	return []Mod{{Off: tnRecsOff + i*tnRecSize, Bytes: b}}
}

// TestDirtyIndexMatchesReference drives seeded random sequences of
// dirtying, flush completions, deallocation and replacement (also of
// blocks whose flush is in flight), locking, metadata children that
// taint the root, Sync, and Snapshot/ForkXN, and checks the index
// against the reference walk after every step.
func TestDirtyIndexMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		f := newFixture(t)
		x := f.x
		x.FlushBehind = 6
		rng := rand.New(rand.NewSource(seed))
		type rec struct {
			blk  disk.BlockNo
			tmpl TemplateID
		}
		var recs []rec
		locked := map[disk.BlockNo]bool{}
		f.run(t, "random", func(e *kernel.Env) error {
			for step := 0; step < 400; step++ {
				name := ""
				switch op := rng.Intn(100); {
				case op < 30 && len(recs) > 0: // dirty a resident block
					r := recs[rng.Intn(len(recs))]
					if !x.Cached(r.blk) {
						continue
					}
					name = "markdirty"
					if err := markDirtyChecked(x, r.blk, name); err != nil {
						return err
					}
				case op < 45: // let in-flight writes complete
					name = "advance"
					e.Use(sim.Time(1_000_000 + 500_000*rng.Intn(8)))
				case op < 60 && len(recs) < 48: // allocate a child
					name = "alloc"
					b, ok := x.FindFree(200, 1)
					if !ok {
						continue
					}
					tmpl := f.data
					if rng.Intn(5) == 0 {
						tmpl = f.tnode
					}
					if err := x.Alloc(e, f.rootBlk, tnAddRecord(len(recs), b, 1, tmpl),
						udf.Extent{Start: int64(b), Count: 1, Type: int64(tmpl)}); err != nil {
						continue // root locked, tainted write pending, ...
					}
					recs = append(recs, rec{b, tmpl})
					if tmpl == f.tnode {
						if err := x.InitMetadata(e, b, make([]byte, 8)); err != nil {
							return err
						}
					} else if _, err := x.AttachPage(e, b); err != nil {
						return err
					} else if err := markDirtyChecked(x, b, name); err != nil {
						return err
					}
				case op < 70 && len(recs) > 0: // drop the last child
					name = "dealloc"
					r := recs[len(recs)-1]
					if err := x.Dealloc(e, f.rootBlk, tnRemoveLast(len(recs)),
						udf.Extent{Start: int64(r.blk), Count: 1, Type: int64(r.tmpl)}); err != nil {
						continue
					}
					recs = recs[:len(recs)-1]
					delete(locked, r.blk)
				case op < 78 && len(recs) > 0 && recs[len(recs)-1].tmpl == f.data: // swap the last child
					name = "replace"
					r := recs[len(recs)-1]
					b, ok := x.FindFree(200, 1)
					if !ok {
						continue
					}
					ext := func(s disk.BlockNo) udf.Extent {
						return udf.Extent{Start: int64(s), Count: 1, Type: int64(f.data)}
					}
					if err := x.Replace(e, f.rootBlk, tnSetRecordStart(len(recs)-1, b), ext(b), ext(r.blk)); err != nil {
						continue
					}
					recs[len(recs)-1].blk = b
					delete(locked, r.blk)
					if _, err := x.AttachPage(e, b); err != nil {
						return err
					}
					if err := markDirtyChecked(x, b, name); err != nil {
						return err
					}
				case op < 88: // lock or unlock a block
					name = "lock"
					b := f.rootBlk
					if len(recs) > 0 && rng.Intn(4) != 0 {
						b = recs[rng.Intn(len(recs))].blk
					}
					if locked[b] {
						if err := x.Unlock(e, b); err != nil {
							return err
						}
						delete(locked, b)
					} else if x.Lock(e, b) == nil {
						locked[b] = true
					}
				case op < 94:
					name = "sync"
					_ = x.Sync(e) // locked or tainted leftovers are expected
				default: // fork the registry once nothing is in flight
					name = "fork"
					if len(flushingSet(x)) > 0 {
						continue
					}
					s, err := x.Snapshot()
					if err != nil {
						return err
					}
					x = ForkXN(s, f.k)
				}
				if err := checkIndex(x, name); err != nil {
					return fmt.Errorf("seed %d step %d: %w", seed, step, err)
				}
			}
			for b := range locked {
				if err := x.Unlock(e, b); err != nil {
					return err
				}
			}
			return x.Sync(e)
		})
		if err := checkIndex(x, "final"); err != nil {
			t.Fatal(err)
		}
		if x.DirtyCount() != 0 {
			t.Fatalf("seed %d: %d dirty after final sync", seed, x.DirtyCount())
		}
	}
}

// inFlightFixture builds a volume with n data blocks allocated as one
// extent under the root, synced clean, then dirtied again with a nil
// environment and no engine progress: flush-behind (threshold fb)
// leaves every dirty block with its write in flight.
func inFlightFixture(t testing.TB, n, fb int) (*fixture, []disk.BlockNo) {
	f := newFixture(t)
	x := f.x
	start, ok := x.FindFree(200, int64(n))
	if !ok {
		t.Fatal("no free extent")
	}
	var blocks []disk.BlockNo
	f.run(t, "setup", func(e *kernel.Env) error {
		if err := x.Alloc(e, f.rootBlk, tnAddRecord(0, start, uint32(n), f.data),
			udf.Extent{Start: int64(start), Count: int64(n), Type: int64(f.data)}); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			b := start + disk.BlockNo(i)
			if _, err := x.AttachPage(e, b); err != nil {
				return err
			}
			if err := x.MarkDirty(e, b); err != nil {
				return err
			}
			blocks = append(blocks, b)
		}
		return x.Sync(e)
	})
	x.FlushBehind = fb
	for _, b := range blocks {
		if err := x.MarkDirty(nil, b); err != nil {
			t.Fatal(err)
		}
	}
	if c := members(&x.flushable); len(c) != 0 {
		t.Fatalf("flush-behind left %d candidates, want all in flight", len(c))
	}
	return f, blocks
}

// TestMarkDirtyInFlightAllocFree: past the flush-behind threshold with
// every dirty block already in flight, dirtying costs no allocation.
// The registry walk it replaces built and sorted a fresh slice on
// every call.
func TestMarkDirtyInFlightAllocFree(t *testing.T) {
	f, blocks := inFlightFixture(t, 600, 512)
	x := f.x
	if x.DirtyCount() <= x.FlushBehind {
		t.Fatalf("dirty %d not past threshold %d", x.DirtyCount(), x.FlushBehind)
	}
	b := blocks[len(blocks)/2]
	if a := testing.AllocsPerRun(100, func() { _ = x.MarkDirty(nil, b) }); a != 0 {
		t.Fatalf("MarkDirty with all dirty blocks in flight: %v allocs/op, want 0", a)
	}
	f.k.Run()
	if err := checkIndex(x, "drained"); err != nil {
		t.Fatal(err)
	}
}

// TestDeallocDuringFlushKeepsDirtyCount: deallocating (or replacing) a
// block while its flush-behind write is in flight must not count it
// clean twice — once at removal and again at the orphaned write's
// completion.
func TestDeallocDuringFlushKeepsDirtyCount(t *testing.T) {
	for _, replace := range []bool{false, true} {
		f, blocks := inFlightFixture(t, 4, 2)
		x := f.x
		last := blocks[len(blocks)-1]
		if en, _ := x.Lookup(last); !en.Dirty || !en.flushing {
			t.Fatalf("block %d not in flight", last)
		}
		f.run(t, "drop", func(e *kernel.Env) error {
			ext := func(s disk.BlockNo) udf.Extent {
				return udf.Extent{Start: int64(s), Count: 1, Type: int64(f.data)}
			}
			shrink := tnAddRecord(0, blocks[0], uint32(len(blocks)-1), f.data)[:1]
			if !replace {
				return x.Dealloc(e, f.rootBlk, shrink, ext(last))
			}
			// Record 1 carries the replacement; the first extent
			// shrinks to free the last block.
			nb, _ := x.FindFree(300, 1)
			mods := append(shrink, tnAddRecord(1, nb, 1, f.data)...)
			return x.Replace(e, f.rootBlk, mods, ext(nb), ext(last))
		})
		if got, want := x.DirtyCount(), len(x.DirtyBlocks()); got != want {
			t.Errorf("replace=%v: DirtyCount %d after the orphaned write completed, %d dirty blocks", replace, got, want)
		}
		if err := checkIndex(x, "after drop"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOrphanedEntryNotCountedDirty: an entry that leaves the registry
// while its caller is parked in a charge must not be counted dirty
// when the caller resumes and commits. Env "modify" rewrites child
// tnode c; c owns enough records that its owns-udf runs past one
// scheduler quantum, so "modify" is preempted after looking c up and
// before marking it dirty. Env "dealloc" then runs a whole slice and
// removes c from the root. Nothing would ever un-count the orphan:
// completions and Sync see live entries only.
func TestOrphanedEntryNotCountedDirty(t *testing.T) {
	const records = 64
	f := newFixtureOn(t, kernel.Config{Name: "xok", MemPages: 2048, DiskSize: 4096, Quantum: 2000})
	x := f.x
	c, _ := x.FindFree(200, 1)
	data, _ := x.FindFree(300, records)
	f.run(t, "setup", func(e *kernel.Env) error {
		if err := x.Alloc(e, f.rootBlk, tnAddRecord(0, c, 1, f.tnode),
			udf.Extent{Start: int64(c), Count: 1, Type: int64(f.tnode)}); err != nil {
			return err
		}
		if err := x.InitMetadata(e, c, make([]byte, tnRecsOff)); err != nil {
			return err
		}
		for i := 0; i < records; i++ {
			b := data + disk.BlockNo(i)
			if err := x.Alloc(e, c, tnAddRecord(i, b, 1, f.data),
				udf.Extent{Start: int64(b), Count: 1, Type: int64(f.data)}); err != nil {
				return err
			}
			if _, err := x.AttachPage(e, b); err != nil {
				return err
			}
			if err := x.MarkDirty(e, b); err != nil {
				return err
			}
		}
		return x.Sync(e)
	})
	if n := x.DirtyCount(); n != 0 {
		t.Fatalf("DirtyCount %d after setup sync", n)
	}
	orphaned := false
	f.k.Spawn("modify", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		owner := []Mod{{Off: tnOwnerOff, Bytes: []byte{0, 0, 0, 0}}}
		if err := x.Modify(e, c, owner); err != nil {
			t.Errorf("modify: %v", err)
		}
		_, live := x.Lookup(c)
		orphaned = !live
	})
	f.k.Spawn("dealloc", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		if err := x.Dealloc(e, f.rootBlk, tnRemoveLast(1),
			udf.Extent{Start: int64(c), Count: 1, Type: int64(f.tnode)}); err != nil {
			t.Errorf("dealloc: %v", err)
		}
	})
	f.k.Run()
	if !orphaned {
		t.Fatal("dealloc did not run while modify was parked; the test no longer reaches the orphan")
	}
	if got, want := x.DirtyCount(), len(x.DirtyBlocks()); got != want {
		t.Errorf("DirtyCount %d, but %d live dirty blocks", got, want)
	}
	if err := checkIndex(x, "after orphaning"); err != nil {
		t.Fatal(err)
	}
	// modify touched c after it left the registry; it must stay off
	// the recency list.
	if err := checkLRUList(x); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkXNMarkDirtyInFlight512 is flush-behind's steady state in
// the Figure 4/5 job mixes: past the 512-block threshold, nearly every
// dirty block already in flight, and each dirtying re-runs the scan.
func BenchmarkXNMarkDirtyInFlight512(b *testing.B) {
	f, blocks := inFlightFixture(b, 600, 512)
	x := f.x
	blk := blocks[len(blocks)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.MarkDirty(nil, blk)
	}
}
