package xn

import (
	"fmt"
	"math/rand"
	"testing"

	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/udf"
)

// The recency list replaces a scan of the whole registry map for the
// least recently used eligible entry. The reference below is that
// scan, kept here so every eviction can be checked against it.

// refRecycleVictim is RecycleLRU's choice without the list: the
// clean, unlocked, unpinned, resident entry with the least lastUse.
func refRecycleVictim(x *XN) *Entry {
	var victim *Entry
	for _, en := range x.reg {
		if en.State != StateResident || en.Dirty || en.LockedBy != NoEnv || en.pinned {
			continue
		}
		if victim == nil || en.lastUse < victim.lastUse {
			victim = en
		}
	}
	return victim
}

// lruOracle checks every RecycleLRU victim of the XNs it watches
// against refRecycleVictim.
type lruOracle struct {
	evictions int
	err       error
}

func (o *lruOracle) watch(x *XN) {
	x.onRecycle = func(v *Entry) {
		o.evictions++
		if ref := refRecycleVictim(x); ref != v && o.err == nil {
			o.err = fmt.Errorf("eviction %d: list picked block %d (lastUse %d), scan picks %v",
				o.evictions, v.Block, v.lastUse, ref)
		}
	}
}

// checkLRUList reports where the recency list disagrees with the
// registry: it must hold exactly the touched live entries, in strictly
// increasing lastUse order, and every resident entry must be on it.
func checkLRUList(x *XN) error {
	linked := 0
	var last uint64
	for en := x.lru.lruNext; en != &x.lru; en = en.lruNext {
		if en.lruNext.lruPrev != en {
			return fmt.Errorf("block %d: broken back link", en.Block)
		}
		if x.reg[en.Block] != en || en.gone {
			return fmt.Errorf("block %d: on the list but not in the registry", en.Block)
		}
		if en.lastUse <= last {
			return fmt.Errorf("block %d: lastUse %d after %d", en.Block, en.lastUse, last)
		}
		last = en.lastUse
		linked++
	}
	touched := 0
	for b, en := range x.reg {
		if en.lastUse != 0 {
			touched++
		}
		if en.State == StateResident && en.lruNext == nil {
			return fmt.Errorf("block %d: resident but not on the list", b)
		}
	}
	if linked != touched {
		return fmt.Errorf("%d entries on the list, %d touched in the registry", linked, touched)
	}
	return nil
}

// TestRecycleLRUMatchesScan drives seeded random sequences under a
// small cache cap, so reads and allocations evict constantly: children
// allocated, read back after eviction, raw-read then allocated over,
// replaced, deallocated, pinned, locked, dirtied, synced, evicted
// explicitly, and the registry snapshotted and forked. Every eviction's
// victim must be the scan's, and the list must match the registry
// after every step.
func TestRecycleLRUMatchesScan(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 12; seed++ {
		f := newFixture(t)
		x := f.x
		x.MaxCachePages = 4
		oracle := &lruOracle{}
		oracle.watch(x)
		rng := rand.New(rand.NewSource(seed))
		type rec struct {
			blk  disk.BlockNo
			tmpl TemplateID
		}
		var recs []rec
		locked := map[disk.BlockNo]bool{}
		ext := func(r rec) udf.Extent {
			return udf.Extent{Start: int64(r.blk), Count: 1, Type: int64(r.tmpl)}
		}
		f.run(t, "random", func(e *kernel.Env) error {
			for step := 0; step < 400; step++ {
				name := ""
				pick := func() rec { return recs[rng.Intn(len(recs))] }
				switch op := rng.Intn(100); {
				case op < 15 && len(recs) < 40: // allocate a child, maybe over a raw read
					name = "alloc"
					b, ok := x.FindFree(200+disk.BlockNo(rng.Intn(400)), 1)
					if !ok {
						continue
					}
					if rng.Intn(3) == 0 {
						if err := x.RawRead(e, b); err != nil {
							return err
						}
					}
					r := rec{b, f.data}
					if rng.Intn(5) == 0 {
						r.tmpl = f.tnode
					}
					if err := x.Alloc(e, f.rootBlk, tnAddRecord(len(recs), b, 1, r.tmpl), ext(r)); err != nil {
						continue // root evicted, locked, ...
					}
					recs = append(recs, r)
					if r.tmpl == f.tnode {
						_ = x.InitMetadata(e, b, make([]byte, 8))
					} else if _, err := x.AttachPage(e, b); err == nil && rng.Intn(2) == 0 {
						_ = x.MarkDirty(e, b)
					}
				case op < 35 && len(recs) > 0: // read a child back in
					name = "read"
					r := pick()
					if _, err := x.LoadRoot(e, f.rootName); err != nil {
						return err
					}
					if err := x.Insert(e, f.rootBlk, ext(r)); err != nil {
						continue
					}
					_ = x.Read(e, []disk.BlockNo{r.blk}, nil)
				case op < 45 && len(recs) > 0: // dirty a resident child
					name = "markdirty"
					if r := pick(); r.tmpl == f.data && x.Cached(r.blk) {
						_ = x.MarkDirty(e, r.blk)
					}
				case op < 52 && len(recs) > 0: // drop the last child
					name = "dealloc"
					r := recs[len(recs)-1]
					if err := x.Dealloc(e, f.rootBlk, tnRemoveLast(len(recs)), ext(r)); err != nil {
						continue
					}
					recs = recs[:len(recs)-1]
					delete(locked, r.blk)
				case op < 58 && len(recs) > 0 && recs[len(recs)-1].tmpl == f.data: // swap the last child
					name = "replace"
					r := recs[len(recs)-1]
					b, ok := x.FindFree(200+disk.BlockNo(rng.Intn(400)), 1)
					if !ok {
						continue
					}
					nr := rec{b, f.data}
					if err := x.Replace(e, f.rootBlk, tnSetRecordStart(len(recs)-1, b), ext(nr), ext(r)); err != nil {
						continue
					}
					recs[len(recs)-1] = nr
					delete(locked, r.blk)
					_, _ = x.AttachPage(e, b)
				case op < 66: // pin or unpin
					name = "pin"
					b := f.rootBlk
					if len(recs) > 0 && rng.Intn(3) != 0 {
						b = pick().blk
					}
					if rng.Intn(2) == 0 {
						x.Pin(b)
					} else {
						x.Unpin(b)
					}
				case op < 74: // lock or unlock
					name = "lock"
					b := f.rootBlk
					if len(recs) > 0 && rng.Intn(4) != 0 {
						b = pick().blk
					}
					if locked[b] {
						_ = x.Unlock(e, b)
						delete(locked, b)
					} else if x.Lock(e, b) == nil {
						locked[b] = true
					}
				case op < 82:
					name = "evict"
					x.RecycleLRU(e)
				case op < 88:
					name = "sync"
					_ = x.Sync(e)
				case op < 94:
					name = "advance"
					e.Use(sim.Time(1_000_000 + 500_000*rng.Intn(8)))
				default: // fork once nothing is in flight
					name = "fork"
					s, err := x.Snapshot()
					if err != nil {
						continue
					}
					x = ForkXN(s, f.k)
					oracle.watch(x)
					// The fork's list must order exactly as the parent's.
					if err := checkLRUList(x); err != nil {
						return fmt.Errorf("seed %d step %d fork: %w", seed, step, err)
					}
				}
				if oracle.err != nil {
					return fmt.Errorf("seed %d step %d %s: %w", seed, step, name, oracle.err)
				}
				if err := checkLRUList(x); err != nil {
					return fmt.Errorf("seed %d step %d %s: %w", seed, step, name, err)
				}
			}
			for b := range locked {
				_ = x.Unlock(e, b)
			}
			return nil
		})
		if oracle.err != nil {
			t.Fatal(oracle.err)
		}
		total += oracle.evictions
	}
	if total < 1000 {
		t.Fatalf("only %d evictions across all seeds; the cache cap no longer forces them", total)
	}
}

// deepLRUFixture builds a registry of n resident data blocks, touched
// in block order, whose first prefix entries cannot be recycled:
// alternately pinned and dirty. Eviction must walk past all of them.
func deepLRUFixture(t testing.TB, n, prefix int) *fixture {
	f := newFixtureOn(t, kernel.Config{Name: "xok", MemPages: 2*n + 64, DiskSize: 4 * int64(n)})
	x := f.x
	start, ok := x.FindFree(200, int64(n))
	if !ok {
		t.Fatal("no free extent")
	}
	f.run(t, "setup", func(e *kernel.Env) error {
		if err := x.Alloc(e, f.rootBlk, tnAddRecord(0, start, uint32(n), f.data),
			udf.Extent{Start: int64(start), Count: int64(n), Type: int64(f.data)}); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if _, err := x.AttachPage(e, start+disk.BlockNo(i)); err != nil {
				return err
			}
		}
		return nil
	})
	for i := 0; i < prefix; i++ {
		b := start + disk.BlockNo(i)
		if i%2 == 0 {
			x.Pin(b)
		} else {
			x.reg[b].Dirty = true // no flush-behind, no touch: stays put
		}
	}
	return f
}

// recycleAndRestore evicts one entry and puts it back at the most
// recently used end, so the registry keeps its shape across calls.
func recycleAndRestore(x *XN, victim **Entry) {
	p, ok := x.RecycleLRU(nil)
	if !ok {
		panic("no victim")
	}
	v := *victim
	v.gone = false
	x.reg[v.Block] = v
	_ = x.M.Ref(p)
	x.touch(v)
}

// TestRecycleLRUDeepAllocFree: evicting past a deep ineligible prefix
// allocates nothing, and picks the scan's victim.
func TestRecycleLRUDeepAllocFree(t *testing.T) {
	f := deepLRUFixture(t, 1024, 512)
	x := f.x
	var victim *Entry
	x.onRecycle = func(v *Entry) { victim = v }
	for i := 0; i < 600; i++ {
		want := refRecycleVictim(x)
		recycleAndRestore(x, &victim)
		if victim != want {
			t.Fatalf("eviction %d: list picked block %d, scan picks %d", i, victim.Block, want.Block)
		}
	}
	if err := checkLRUList(x); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { recycleAndRestore(x, &victim) }); a != 0 {
		t.Fatalf("RecycleLRU past a 512-entry ineligible prefix: %v allocs/op, want 0", a)
	}
}

// BenchmarkXNRecycleLRUDeep is one eviction from a 4096-entry registry
// whose 1024 least recently used entries are pinned or dirty: the cost
// is the ineligible prefix, where the scan it replaces walked the
// whole registry map.
func BenchmarkXNRecycleLRUDeep(b *testing.B) {
	f := deepLRUFixture(b, 4096, 1024)
	x := f.x
	var victim *Entry
	x.onRecycle = func(v *Entry) { victim = v }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recycleAndRestore(x, &victim)
	}
}
