package xn

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"xok/internal/cap"
	"xok/internal/disk"
	"xok/internal/fault"
	"xok/internal/kernel"
	"xok/internal/mem"
	"xok/internal/sim"
	"xok/internal/udf"
)

// Mod is one piece of a proposed metadata modification: "specified as a
// list of bytes to write into m" (Section 4.1).
type Mod struct {
	Off   int
	Bytes []byte
}

// applyMods writes the modification into data, checking bounds.
func applyMods(data []byte, mods []Mod) error {
	for _, m := range mods {
		if m.Off < 0 || m.Off+len(m.Bytes) > len(data) {
			return fmt.Errorf("xn: modification [%d,+%d) outside metadata", m.Off, len(m.Bytes))
		}
		copy(data[m.Off:], m.Bytes)
	}
	return nil
}

// modsToAux serializes a modification for acl-uf consumption:
// repeated (off:le32, len:le32, bytes).
func modsToAux(mods []Mod) []byte {
	var out []byte
	for _, m := range mods {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(m.Off))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(m.Bytes)))
		out = append(out, hdr[:]...)
		out = append(out, m.Bytes...)
	}
	return out
}

// getPage obtains a physical page for buffer-cache use, recycling the
// LRU buffer when the cache cap (MaxCachePages; the OpenBSD
// personality's small, non-unified buffer cache) or physical memory is
// exhausted.
func (x *XN) getPage(e *kernel.Env) (mem.PageNo, error) {
	if x.MaxCachePages > 0 && len(x.reg) >= x.MaxCachePages {
		if p, ok := x.RecycleLRU(e); ok {
			return p, nil
		}
	}
	p, err := x.M.Alloc(cap.Root(true))
	if err == nil {
		return p, nil
	}
	if p, ok := x.RecycleLRU(e); ok {
		return p, nil
	}
	// Memory pressure with nothing clean: flush some dirty buffers
	// (write-back under pressure) and retry.
	if n, werr := x.WriteBack(e, 64); werr == nil && n > 0 {
		if p, ok := x.RecycleLRU(e); ok {
			return p, nil
		}
	}
	return mem.NoPage, err
}

// Read is the second stage of reading (Section 4.4): supply pages and
// issue disk requests for the listed blocks, blocking the environment
// until all complete. Entries must already exist (Insert, LoadRoot or
// RawRead). pages may be nil (XN allocates from the free page list /
// LRU); if given, pages[i] backs blocks[i] — applications control
// placement.
func (x *XN) Read(e *kernel.Env, blocks []disk.BlockNo, pages []mem.PageNo) error {
	x.charge(e, sim.Time(50*len(blocks)))
	x.K.Stats.Inc(sim.CtrRegistryOps)

	type readOp struct {
		block disk.BlockNo
		entry *Entry
	}
	var ops []readOp
	for i, b := range blocks {
		en, ok := x.reg[b]
		if !ok {
			return ErrNotInRegistry
		}
		switch en.State {
		case StateResident:
			x.K.Stats.Inc(sim.CtrCacheHits)
			x.touch(en)
			continue
		case StateInTransit:
			// Another environment's read is in flight; wait for it.
			if e != nil {
				en.waiters = append(en.waiters, e)
			}
			continue
		}
		if en.Uninit {
			// The block was allocated but its on-disk content never
			// initialized: whatever lives there belongs to a previous
			// owner. Serve a zero page without touching the disk — the
			// UNIX hole contract (reading past what was written sees
			// zeros) and stale-data containment in one. Uninit stays
			// set: it describes the *disk*, which is still garbage.
			x.K.Stats.Inc(sim.CtrCacheHits)
			if en.Page == mem.NoPage {
				var p mem.PageNo
				if pages != nil && i < len(pages) && pages[i] != mem.NoPage {
					p = pages[i]
				} else {
					var err error
					p, err = x.getPage(e)
					if err != nil {
						return err
					}
				}
				en.Page = p
				x.M.Ref(p)
			}
			d := x.M.Data(en.Page)
			for j := range d {
				d[j] = 0
			}
			en.setState(StateResident)
			x.touch(en)
			continue
		}
		x.K.Stats.Inc(sim.CtrCacheMisses)
		if en.Page == mem.NoPage {
			var p mem.PageNo
			if pages != nil && i < len(pages) && pages[i] != mem.NoPage {
				p = pages[i]
			} else {
				var err error
				p, err = x.getPage(e)
				if err != nil {
					return err
				}
			}
			en.Page = p
			x.M.Ref(p)
		}
		en.setState(StateInTransit)
		ops = append(ops, readOp{b, en})
	}

	// Coalesce contiguous runs so large sorted schedules hit the disk
	// as large requests.
	slices.SortFunc(ops, func(a, b readOp) int { return cmp.Compare(a.block, b.block) })
	submit := func(run []readOp) {
		pagesData := make([][]byte, len(run))
		for i, op := range run {
			pagesData[i] = x.M.Data(op.entry.Page)
		}
		x.D.Submit(&disk.Request{
			Block: run[0].block,
			Count: len(run),
			Pages: pagesData,
			Done: func(req *disk.Request) {
				x.K.ChargeInterrupt(sim.DiskInterruptCost)
				for _, op := range run {
					if req.Err != nil {
						// Media error: no data arrived. The entry
						// falls back out of core so a later read can
						// retry; waiters wake and see the failure.
						op.entry.setState(StateOutOfCore)
					} else {
						op.entry.setState(StateResident)
						op.entry.Uninit = false
						x.touch(op.entry)
					}
					for _, w := range op.entry.waiters {
						x.K.Wake(w)
					}
					op.entry.waiters = nil
				}
				if e != nil {
					x.K.Wake(e)
				}
			},
		})
	}
	start := 0
	nreq := 0
	for i := 1; i <= len(ops); i++ {
		if i == len(ops) || ops[i].block != ops[i-1].block+1 {
			submit(ops[start:i])
			nreq++
			start = i
		}
	}
	x.chargeIO(e, nreq)
	if e != nil {
		for {
			pending := false
			for _, b := range blocks {
				en, ok := x.reg[b]
				if !ok {
					return ErrNotInRegistry
				}
				switch en.State {
				case StateResident:
				case StateInTransit:
					pending = true
				default:
					// We (or the read we piggybacked on) hit a media
					// error and the entry fell back out of core.
					return fault.ErrMedia
				}
			}
			if !pending {
				return nil
			}
			e.Block()
		}
	}
	return nil
}

// chargeIO charges the unavoidable kernel crossing that starts a disk
// request even when protection-boundary charging is off (FreeCost):
// "without XN" still means trapping to program the controller. This is
// what keeps the Section 6.3 comparison honest — removing XN removes
// most system calls, not all of them (300,000 -> 81,000 in the paper).
func (x *XN) chargeIO(e *kernel.Env, nreq int) {
	if e == nil || nreq == 0 || !x.FreeCost {
		return
	}
	x.K.Stats.Add(sim.CtrSyscalls, int64(nreq))
	e.Use(sim.Time(nreq) * x.K.TrapCost())
}

func (x *XN) allResident(blocks []disk.BlockNo) bool {
	for _, b := range blocks {
		if en, ok := x.reg[b]; !ok || en.State != StateResident {
			return false
		}
	}
	return true
}

// RawRead speculatively reads a block before its parent is known
// (Section 4.4). The entry is marked "unknown type" and cannot be used
// until Insert binds it to a parent.
func (x *XN) RawRead(e *kernel.Env, b disk.BlockNo) error {
	if int64(b) < reservedEnd || int64(b) >= x.D.NumBlocks() {
		return ErrOutOfRange
	}
	if _, ok := x.reg[b]; !ok {
		x.reg[b] = &Entry{
			Block:    b,
			Page:     mem.NoPage,
			State:    StateOutOfCore,
			Tmpl:     TmplUnknown,
			Parent:   NoParent,
			LockedBy: NoEnv,
		}
	}
	return x.Read(e, []disk.BlockNo{b}, nil)
}

// MapData performs the bind-time access check for mapping a cached
// block into an environment (secure bindings: "the permission to read
// a cached disk block is checked when the page is inserted into the
// page table ... rather than on every access", Section 4.3.1).
// Metadata blocks may never be mapped writable.
func (x *XN) MapData(e *kernel.Env, b disk.BlockNo, write bool) (mem.PageNo, error) {
	x.charge(e, 100)
	en, ok := x.reg[b]
	if !ok {
		return mem.NoPage, ErrNotInRegistry
	}
	if en.State != StateResident {
		return mem.NoPage, ErrNotResident
	}
	if write && x.isMetadata(en.Tmpl) {
		return mem.NoPage, ErrMetadataRW
	}
	if err := x.checkAccess(e, en, write); err != nil {
		return mem.NoPage, err
	}
	x.touch(en)
	return en.Page, nil
}

// checkAccess runs the appropriate acl-uf for the entry: its own
// template's, or — for types with AclAtParent, such as bare data
// blocks — the parent's over the parent's metadata.
func (x *XN) checkAccess(e *kernel.Env, en *Entry, write bool) error {
	t, ok := x.templates[en.Tmpl]
	if !ok {
		return ErrNoTemplate
	}
	op := int64(OpRead)
	if write {
		op = OpModify
	}
	target := en
	if t.AclAtParent {
		if en.Parent == NoParent {
			return ErrNotOwned
		}
		pen, ok := x.reg[en.Parent]
		if !ok || pen.State != StateResident {
			return ErrNotResident
		}
		target = pen
		t, ok = x.templates[pen.Tmpl]
		if !ok {
			return ErrNoTemplate
		}
	}
	// A freshly allocated block has no content yet; its acl-uf runs
	// over empty metadata (self-describing types that need their own
	// bytes for access control must check after InitMetadata).
	var meta []byte
	if target.Page != mem.NoPage && target.State == StateResident {
		meta = x.M.Data(target.Page)
	}
	okAcl, err := x.runAcl(e, t, meta, nil, op)
	if err != nil {
		return err
	}
	if !okAcl {
		return ErrAccessDenied
	}
	return nil
}

// AttachPage supplies a zeroed page for a freshly allocated block so
// the application can fill it (data path). The write-access check
// happens here, at bind time.
func (x *XN) AttachPage(e *kernel.Env, b disk.BlockNo) (mem.PageNo, error) {
	x.charge(e, 100)
	en, ok := x.reg[b]
	if !ok {
		return mem.NoPage, ErrNotInRegistry
	}
	if en.State == StateResident {
		return mem.NoPage, fmt.Errorf("xn: block %d already resident", b)
	}
	if x.isMetadata(en.Tmpl) {
		return mem.NoPage, ErrMetadataRW
	}
	if err := x.checkAccess(e, en, true); err != nil {
		return mem.NoPage, err
	}
	p, err := x.getPage(e)
	if err != nil {
		return mem.NoPage, err
	}
	en.Page = p
	x.M.Ref(p)
	en.setState(StateResident)
	d := x.M.Data(p)
	for i := range d {
		d[i] = 0
	}
	x.touch(en)
	return p, nil
}

// MarkDirty flags a data block modified through its writable mapping.
func (x *XN) MarkDirty(e *kernel.Env, b disk.BlockNo) error {
	x.charge(e, 30)
	en, ok := x.reg[b]
	if !ok {
		return ErrNotInRegistry
	}
	if en.State != StateResident {
		return ErrNotResident
	}
	x.setDirty(en)
	x.touch(en)
	return nil
}

// setDirty marks an entry dirty, maintaining the dirty count and
// triggering flush-behind when configured. en may have left the
// registry while its caller was parked in a charge; such an orphan
// stays clean, because the count and the index hold live entries only
// and nothing would ever un-count it.
func (x *XN) setDirty(en *Entry) {
	if !en.Dirty && x.reg[en.Block] == en {
		en.Dirty = true
		x.dirtyCount++
		x.dirty.add(en.Block)
		if !en.flushing {
			x.flushable.add(en.Block)
		}
	}
	x.maybeFlushBehind()
}

// DirtyCount reports the number of dirty blocks (exposed information).
func (x *XN) DirtyCount() int { return x.dirtyCount }

// maybeFlushBehind starts asynchronous write-back of the writable
// dirty blocks when the dirty set exceeds the threshold. The caller
// does not wait; completions arrive through disk events.
func (x *XN) maybeFlushBehind() {
	if x.FlushBehind <= 0 || x.dirtyCount <= x.FlushBehind {
		return
	}
	var flush []disk.BlockNo
	limit := x.dirtyCount - x.FlushBehind/2 // flush down to half-threshold
	for b := x.flushable.next(0); b >= 0; b = x.flushable.next(b + 1) {
		en := x.reg[b]
		if en.LockedBy != NoEnv || en.State != StateResident {
			continue
		}
		if x.taintCheck(en) != nil {
			continue
		}
		en.flushing = true
		x.flushable.remove(b)
		flush = append(flush, b)
		if len(flush) >= limit {
			break
		}
	}
	if len(flush) > 0 {
		// Write with a nil environment: fire and forget.
		_ = x.Write(nil, flush)
	}
}

// AdoptPage makes dest's registry entry share src's physical page and
// marks dest dirty — the zero-touch copy path (Section 7.2): "this
// strategy eliminates all copies; the file is DMAed into and out of
// the buffer cache by the disk controller — the CPU never touches the
// data". Requires read access to src and write access to dest, checked
// at bind time.
func (x *XN) AdoptPage(e *kernel.Env, dest, src disk.BlockNo) error {
	x.charge(e, 60) // page remap, no data movement
	sen, ok := x.reg[src]
	if !ok || sen.State != StateResident || sen.Page == mem.NoPage {
		return ErrNotResident
	}
	den, ok := x.reg[dest]
	if !ok {
		return ErrNotInRegistry
	}
	if x.isMetadata(den.Tmpl) {
		return ErrMetadataRW
	}
	if err := x.checkAccess(e, sen, false); err != nil {
		return err
	}
	if err := x.checkAccess(e, den, true); err != nil {
		return err
	}
	if den.Page != mem.NoPage {
		x.M.Unref(den.Page)
	}
	den.Page = sen.Page
	x.M.Ref(den.Page)
	den.setState(StateResident)
	x.setDirty(den)
	x.touch(den)
	return nil
}

// InitMetadata supplies the initial content of a freshly allocated
// metadata block. The content must own nothing (pointers are added
// later through Alloc, keeping the ownership audit trail intact), and
// must satisfy its own template's acl-uf (well-formedness).
func (x *XN) InitMetadata(e *kernel.Env, b disk.BlockNo, content []byte) error {
	x.charge(e, sim.CopyCost(len(content)))
	en, ok := x.reg[b]
	if !ok {
		return ErrNotInRegistry
	}
	if !en.Uninit {
		return fmt.Errorf("xn: block %d is not awaiting initialization", b)
	}
	t, ok := x.templates[en.Tmpl]
	if !ok {
		return ErrNoTemplate
	}
	if len(content) > sim.DiskBlockSize {
		return fmt.Errorf("xn: init content larger than a block")
	}
	buf := make([]byte, sim.DiskBlockSize)
	copy(buf, content)
	owned, err := x.runOwns(e, t, buf)
	if err != nil {
		return err
	}
	if len(owned) != 0 {
		return fmt.Errorf("%w: initial content may not own blocks", ErrBadDelta)
	}
	okAcl, err := x.runAcl(e, t, buf, nil, OpModify)
	if err != nil {
		return err
	}
	if !okAcl {
		return ErrAccessDenied
	}
	if en.Page == mem.NoPage {
		p, err := x.getPage(e)
		if err != nil {
			return err
		}
		en.Page = p
		x.M.Ref(p)
	}
	copy(x.M.Data(en.Page), buf)
	en.setState(StateResident)
	x.setDirty(en)
	x.touch(en)
	return nil
}

// ownsMap expands extents to a per-block type map for exact delta
// comparison (extent boundaries may shift across a modification).
func ownsMap(extents []udf.Extent) map[disk.BlockNo]int64 {
	m := make(map[disk.BlockNo]int64)
	for _, e := range extents {
		for i := int64(0); i < e.Count; i++ {
			m[disk.BlockNo(e.Start+i)] = e.Type
		}
	}
	return m
}

// verifyDelta checks new = old + add - remove exactly.
func verifyDelta(old, new map[disk.BlockNo]int64, add, remove udf.Extent) error {
	want := make(map[disk.BlockNo]int64, len(old))
	for b, t := range old {
		want[b] = t
	}
	for i := int64(0); i < add.Count; i++ {
		b := disk.BlockNo(add.Start + i)
		if _, dup := want[b]; dup {
			return fmt.Errorf("%w: block %d already owned", ErrBadDelta, b)
		}
		want[b] = add.Type
	}
	for i := int64(0); i < remove.Count; i++ {
		b := disk.BlockNo(remove.Start + i)
		if t, ok := want[b]; !ok || t != remove.Type {
			return fmt.Errorf("%w: block %d not owned with type %d", ErrBadDelta, b, remove.Type)
		}
		delete(want, b)
	}
	if len(new) != len(want) {
		return ErrBadDelta
	}
	for b, t := range want {
		if nt, ok := new[b]; !ok || nt != t {
			return ErrBadDelta
		}
	}
	return nil
}

// mutateMeta is the shared guts of Alloc, Dealloc and Modify: run
// acl-uf, verify the ownership delta of the proposed modification via
// owns-udf before/after (Section 4.1), then commit it to the cached
// page.
func (x *XN) mutateMeta(e *kernel.Env, meta disk.BlockNo, mods []Mod, add, remove udf.Extent, op int64) (*Entry, error) {
	en, ok := x.reg[meta]
	if !ok {
		return nil, ErrNotInRegistry
	}
	if en.State != StateResident {
		return nil, ErrNotResident
	}
	if x.lockedByOther(e, en) {
		return nil, ErrLocked
	}
	t, ok := x.templates[en.Tmpl]
	if !ok {
		return nil, ErrNoTemplate
	}
	data := x.M.Data(en.Page)
	okAcl, err := x.runAcl(e, t, data, modsToAux(mods), op)
	if err != nil {
		return nil, err
	}
	if !okAcl {
		return nil, ErrAccessDenied
	}
	oldOwns, err := x.runOwns(e, t, data)
	if err != nil {
		return nil, err
	}
	// Trial-apply into the shared scratch when no other env holds it.
	// Charging (runOwns below) parks this goroutine, so a second env can
	// enter mutateMeta while we are mid-flight; that rare interleaving
	// falls back to a private buffer instead of clobbering ours.
	var tmp []byte
	if !x.modScratchBusy {
		if len(x.modScratch) < len(data) {
			x.modScratch = make([]byte, len(data))
		}
		tmp = x.modScratch[:len(data)]
		x.modScratchBusy = true
		defer func() { x.modScratchBusy = false }()
	} else {
		tmp = make([]byte, len(data))
	}
	copy(tmp, data)
	if err := applyMods(tmp, mods); err != nil {
		return nil, err
	}
	newOwns, err := x.runOwns(e, t, tmp)
	if err != nil {
		return nil, err
	}
	if err := verifyDelta(ownsMap(oldOwns), ownsMap(newOwns), add, remove); err != nil {
		return nil, err
	}
	// Commit.
	copy(data, tmp)
	x.setDirty(en)
	x.touch(en)
	return en, nil
}

// Alloc allocates the extent's blocks into metadata block meta by
// applying the proposed modification, after verifying (1) acl-uf
// approves, (2) the blocks are free, and (3) owns-udf confirms the
// modification allocates exactly those blocks (Section 4.4).
func (x *XN) Alloc(e *kernel.Env, meta disk.BlockNo, mods []Mod, ext udf.Extent) error {
	x.charge(e, 200)
	for i := int64(0); i < ext.Count; i++ {
		b := ext.Start + i
		if b < reservedEnd || b >= x.D.NumBlocks() {
			return ErrOutOfRange
		}
		if !x.free.get(b) {
			return ErrNotFree
		}
	}
	en, err := x.mutateMeta(e, meta, mods, ext, udf.Extent{}, OpAlloc)
	if err != nil {
		return err
	}
	tmpl := x.templates[en.Tmpl]
	for i := int64(0); i < ext.Count; i++ {
		b := disk.BlockNo(ext.Start + i)
		x.free.set(int64(b), false)
		x.unindex(b) // a raw-read entry for the free block may be replaced
		x.reg[b] = &Entry{
			Block:     b,
			Page:      mem.NoPage,
			State:     StateOutOfCore,
			Uninit:    true,
			Tmpl:      TemplateID(ext.Type),
			Parent:    meta,
			Attached:  en.Attached,
			Temporary: en.Temporary || tmpl.Temporary,
			LockedBy:  NoEnv,
		}
		x.K.Stats.Inc(sim.CtrTaintedBlocks)
	}
	x.recomputeTaint(meta)
	return nil
}

// Dealloc removes the extent from meta's ownership. Freed blocks whose
// on-disk reference count is non-zero go to the will-free list until
// the pointers are nullified by a write (Section 4.4).
func (x *XN) Dealloc(e *kernel.Env, meta disk.BlockNo, mods []Mod, ext udf.Extent) error {
	x.charge(e, 200)
	en, err := x.mutateMeta(e, meta, mods, udf.Extent{}, ext, OpDealloc)
	if err != nil {
		return err
	}
	_ = en
	for i := int64(0); i < ext.Count; i++ {
		b := disk.BlockNo(ext.Start + i)
		if cen, ok := x.reg[b]; ok {
			x.dropEntry(b, cen)
		}
		x.releaseBlock(b)
	}
	x.recomputeTaint(meta)
	return nil
}

// dropEntry removes a deallocated block's registry entry. A
// flush-behind write may still be in flight on it: clearing Dirty and
// flushing on the orphan keeps that write's completion from counting
// the block clean a second time.
func (x *XN) dropEntry(b disk.BlockNo, en *Entry) {
	if en.Page != mem.NoPage {
		x.M.Unref(en.Page)
	}
	if en.Dirty {
		x.dirtyCount--
	}
	en.Dirty, en.flushing = false, false
	x.unindex(b)
	delete(x.reg, b)
}

// unindex drops b from the dirty index: its entry went clean or is
// leaving the registry.
func (x *XN) unindex(b disk.BlockNo) {
	x.dirty.remove(b)
	x.flushable.remove(b)
}

// releaseBlock frees b if nothing on disk points to it, else queues it
// on the will-free list.
func (x *XN) releaseBlock(b disk.BlockNo) {
	if x.diskRefs[b] > 0 {
		x.willFree[b] = true
		return
	}
	delete(x.willFree, b)
	x.free.set(int64(b), true)
	// Freeing a metadata block kills its on-disk pointers.
	if owns, ok := x.onDiskOwns[b]; ok {
		delete(x.onDiskOwns, b)
		for _, ext := range owns {
			for i := int64(0); i < ext.Count; i++ {
				c := disk.BlockNo(ext.Start + i)
				x.decDiskRef(c)
			}
		}
	}
}

func (x *XN) decDiskRef(b disk.BlockNo) {
	if x.diskRefs[b] > 0 {
		x.diskRefs[b]--
	}
	if x.diskRefs[b] == 0 {
		delete(x.diskRefs, b)
		if x.willFree[b] {
			x.releaseBlock(b)
		}
	}
}

// Replace applies a modification that atomically allocates the add
// extent and releases the remove extent in one metadata block — the
// "move" operation of Ganger/Patt rule 3 ("when moving an on-disk
// resource, never reset the old pointer in persistent storage before
// the new one has been set"): because the swap is one cached-block
// modification, the on-disk image transitions in a single write. The
// log-structured file system uses it to swap a file's old inode for
// its freshly-logged replacement.
func (x *XN) Replace(e *kernel.Env, meta disk.BlockNo, mods []Mod, add, remove udf.Extent) error {
	x.charge(e, 250)
	for i := int64(0); i < add.Count; i++ {
		b := add.Start + i
		if b < reservedEnd || b >= x.D.NumBlocks() {
			return ErrOutOfRange
		}
		if !x.free.get(b) {
			return ErrNotFree
		}
	}
	en, err := x.mutateMeta(e, meta, mods, add, remove, OpAlloc)
	if err != nil {
		return err
	}
	tmpl := x.templates[en.Tmpl]
	for i := int64(0); i < add.Count; i++ {
		b := disk.BlockNo(add.Start + i)
		x.free.set(int64(b), false)
		x.unindex(b) // a raw-read entry for the free block may be replaced
		x.reg[b] = &Entry{
			Block:     b,
			Page:      mem.NoPage,
			State:     StateOutOfCore,
			Uninit:    true,
			Tmpl:      TemplateID(add.Type),
			Parent:    meta,
			Attached:  en.Attached,
			Temporary: en.Temporary || tmpl.Temporary,
			LockedBy:  NoEnv,
		}
	}
	for i := int64(0); i < remove.Count; i++ {
		b := disk.BlockNo(remove.Start + i)
		if cen, ok := x.reg[b]; ok {
			x.dropEntry(b, cen)
		}
		x.releaseBlock(b)
	}
	x.recomputeTaint(meta)
	return nil
}

// Modify applies a metadata modification that must not change
// ownership at all (sizes, timestamps, directory names, ...).
func (x *XN) Modify(e *kernel.Env, meta disk.BlockNo, mods []Mod) error {
	x.charge(e, 100)
	_, err := x.mutateMeta(e, meta, mods, udf.Extent{}, udf.Extent{}, OpModify)
	return err
}

// WillFreeCount reports blocks parked on the will-free list.
func (x *XN) WillFreeCount() int { return len(x.willFree) }

// recomputeTaint refreshes the taint flag of b and propagates changes
// up the parent chain: "any block is considered tainted if it points
// either to an uninitialized block or to a tainted block"
// (Section 4.3.2). Unattached and temporary trees are not tracked.
func (x *XN) recomputeTaint(b disk.BlockNo) {
	for b != NoParent {
		en, ok := x.reg[b]
		if !ok || en.State != StateResident || en.Temporary || !en.Attached {
			return
		}
		if !x.isMetadata(en.Tmpl) {
			return
		}
		t := x.templates[en.Tmpl]
		owns, err := x.runOwns(nil, t, x.M.Data(en.Page))
		if err != nil {
			return
		}
		tainted := false
		for _, ext := range owns {
			for i := int64(0); i < ext.Count && !tainted; i++ {
				if cen, ok := x.reg[disk.BlockNo(ext.Start+i)]; ok {
					if cen.Uninit || cen.Tainted {
						tainted = true
					}
				}
			}
			if tainted {
				break
			}
		}
		if en.Tainted == tainted {
			return
		}
		en.Tainted = tainted
		b = en.Parent
	}
}

// taintCheck reports whether writing b's current cached content would
// persist a pointer to uninitialized data.
func (x *XN) taintCheck(en *Entry) error {
	if en.Temporary || !en.Attached {
		return nil // exemptions, Section 4.3.2
	}
	if !x.isMetadata(en.Tmpl) {
		return nil
	}
	t := x.templates[en.Tmpl]
	owns, err := x.runOwns(nil, t, x.M.Data(en.Page))
	if err != nil {
		return err
	}
	for _, ext := range owns {
		for i := int64(0); i < ext.Count; i++ {
			if cen, ok := x.reg[disk.BlockNo(ext.Start+i)]; ok {
				if cen.Uninit || cen.Tainted {
					return ErrTainted
				}
			}
		}
	}
	return nil
}

// Write flushes the listed blocks to disk, enforcing the ordering
// rules, and blocks the environment until the I/O completes. "The
// write also fails if any of the blocks are tainted and reachable from
// a persistent root" (Section 4.4). Contiguous runs coalesce into
// single disk requests.
func (x *XN) Write(e *kernel.Env, blocks []disk.BlockNo) error {
	x.charge(e, sim.Time(50*len(blocks)))
	type writeOp struct {
		block disk.BlockNo
		entry *Entry
		owns  []udf.Extent
	}
	var ops []writeOp
	for _, b := range blocks {
		en, ok := x.reg[b]
		if !ok {
			return ErrNotInRegistry
		}
		if en.State != StateResident || en.Page == mem.NoPage {
			return ErrNotResident
		}
		if x.lockedByOther(e, en) {
			return ErrLocked
		}
		if err := x.taintCheck(en); err != nil {
			return err
		}
		var owns []udf.Extent
		if x.isMetadata(en.Tmpl) {
			t := x.templates[en.Tmpl]
			var err error
			owns, err = x.runOwns(e, t, x.M.Data(en.Page))
			if err != nil {
				return err
			}
		}
		ops = append(ops, writeOp{b, en, owns})
	}
	if len(ops) == 0 {
		return nil
	}
	slices.SortFunc(ops, func(a, b writeOp) int { return cmp.Compare(a.block, b.block) })

	remaining := 0
	submit := func(run []writeOp) {
		pagesData := make([][]byte, len(run))
		for i, op := range run {
			pagesData[i] = x.M.Data(op.entry.Page)
		}
		remaining++
		x.D.Submit(&disk.Request{
			Write: true,
			Block: run[0].block,
			Count: len(run),
			Pages: pagesData,
			Done: func(*disk.Request) {
				x.K.ChargeInterrupt(sim.DiskInterruptCost)
				for _, op := range run {
					x.completeWrite(op.block, op.entry, op.owns)
				}
				remaining--
				if remaining == 0 && e != nil {
					x.K.Wake(e)
				}
			},
		})
	}
	start := 0
	nreq := 0
	for i := 1; i <= len(ops); i++ {
		if i == len(ops) || ops[i].block != ops[i-1].block+1 {
			submit(ops[start:i])
			nreq++
			start = i
		}
	}
	x.chargeIO(e, nreq)
	if e != nil {
		for remaining > 0 {
			e.Block()
		}
	}
	return nil
}

// completeWrite runs at disk-completion time: maintain on-disk
// reference counts from the ownership diff, release will-free blocks
// whose last pointer died, clear dirty/uninit, and refresh taint up
// the tree.
func (x *XN) completeWrite(b disk.BlockNo, en *Entry, newOwns []udf.Extent) {
	oldMap := ownsMap(x.onDiskOwns[b])
	newMap := ownsMap(newOwns)
	for c := range newMap {
		if _, had := oldMap[c]; !had {
			x.diskRefs[c]++
		}
	}
	for c := range oldMap {
		if _, has := newMap[c]; !has {
			x.decDiskRef(c)
		}
	}
	if len(newOwns) > 0 {
		x.onDiskOwns[b] = newOwns
	} else {
		delete(x.onDiskOwns, b)
	}
	if en.Dirty {
		en.Dirty = false
		x.dirtyCount--
	}
	en.flushing = false
	if x.reg[b] == en {
		x.unindex(b)
	}
	wasUninit := en.Uninit
	en.Uninit = false
	if wasUninit && en.Parent != NoParent {
		x.recomputeTaint(en.Parent)
	}
}

// WriteBack flushes up to max dirty, unlocked, untainted blocks — the
// asynchronous write-back daemon's operation. "XN allows any process
// to write 'unowned' dirty blocks to disk ... even if that process
// does not have write permission for the dirty blocks" (Section
// 4.3.3): no acl check here, flushing committed state is always safe.
func (x *XN) WriteBack(e *kernel.Env, max int) (int, error) {
	var flush []disk.BlockNo
	for _, b := range x.DirtyBlocks() {
		en := x.reg[b]
		if en.LockedBy != NoEnv {
			continue
		}
		if x.taintCheck(en) != nil {
			continue // not yet writable; its children must go first
		}
		flush = append(flush, b)
		if max > 0 && len(flush) >= max {
			break
		}
	}
	if len(flush) == 0 {
		return 0, nil
	}
	if err := x.Write(e, flush); err != nil {
		return 0, err
	}
	return len(flush), nil
}

// Sync flushes all dirty blocks in dependency order: repeatedly write
// everything writable until nothing is dirty (children before tainted
// parents; each pass un-taints the next level).
func (x *XN) Sync(e *kernel.Env) error {
	for {
		n, err := x.WriteBack(e, 0)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	if rest := x.DirtyBlocks(); len(rest) > 0 {
		return fmt.Errorf("xn: %d dirty blocks cannot be synced (locked or tainted)", len(rest))
	}
	return nil
}
