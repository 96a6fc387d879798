package sim

import "math/bits"

// Hierarchical timer wheel: the engine's scheduling backend for the
// far-future/bulk-timer regime (RTOs, open-loop arrival pre-draws).
//
// The 4-ary heap is exact but costs O(log n) per operation, and with
// 100k+ pending timers the log — and the cache misses under it — is
// what the simulator spends its host time on. The wheel files a
// far-future event into a bucket (a doubly-linked list) in O(1) and
// only moves it into the heap when the clock approaches its deadline,
// so the heap's n stays bounded by the near-term working set.
//
// Correctness contract: pop order must stay bit-identical to the pure
// heap's (at, seq) FIFO order. The wheel never orders anything — each
// node keeps the seq stamped at schedule time, and syncWheel flushes
// buckets into the heap strictly before the heap could pop past them
// (every pop/peek first establishes heap[0].at < cur[0]<<wheelShift,
// and every wheel resident's deadline is >= that bound). The heap is
// the sole arbiter of order, so an event that takes the wheel detour
// pops exactly where it always did. Any placement the wheel cannot
// make safely (deadline inside an already-flushed slot, beyond the top
// level's span like the 1<<60 serve-forever sentinels, or the wheel
// disabled) falls back to the heap, which is always exact — the wheel
// can only ever be a deferral, never a reordering.
const (
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits // 256 slots per level
	wheelSlotMask = wheelSlots - 1
	wheelLevels   = 5
	// wheelShift sizes a level-0 slot at 2^12 cycles (~20.5us at the
	// simulated 200MHz): far below every protocol timer (RTO floors are
	// tens of milliseconds) and far above per-event cost granularity.
	// Level l slots span 2^(12+8l) cycles; the top level covers 2^52
	// cycles (~260 simulated days), beyond which events heap directly.
	wheelShift = 12
	// wheelMinDefer keeps near-term events (under two level-0 slots
	// out) on the heap: they are about to fire, and the detour through
	// a bucket would cost more than the heap push it saves.
	wheelMinDefer = 2 << wheelShift
)

// wheelIndex encodes a wheel position (level, ring slot) into the
// node.index field: heap residents use index >= 0, free nodes -1, and
// wheel residents <= -2 so Cancel can route removal without any extra
// per-node storage.
func wheelIndex(level, ring int) int32 {
	return int32(-2 - (level<<wheelSlotBits | ring))
}

func wheelLoc(index int32) (level, ring int) {
	v := int(-2 - index)
	return v >> wheelSlotBits, v & wheelSlotMask
}

type wheelLevel struct {
	// cur is an absolute slot cursor: every slot with absolute number
	// < cur has been flushed (its events are in the heap or a lower
	// level), so the ring may only hold slots in [cur, cur+wheelSlots).
	cur   uint64
	occ   [wheelSlots / 64]uint64 // occupancy bitmap over ring indices
	slots [wheelSlots]*node       // per-slot doubly-linked bucket head
}

type wheel struct {
	count  int // nodes resident in buckets (not yet flushed to heap)
	levels [wheelLevels]wheelLevel
}

// place files n into the shallowest level whose unflushed window covers
// its deadline, reporting false when none can (already-flushed slot or
// beyond the top span) — the caller then heaps the node, which is
// always safe.
func (w *wheel) place(n *node) bool {
	shift := uint(wheelShift)
	for l := 0; l < wheelLevels; l++ {
		lv := &w.levels[l]
		abs := uint64(n.at) >> shift
		if abs >= lv.cur && abs-lv.cur < wheelSlots {
			ring := abs & wheelSlotMask
			head := lv.slots[ring]
			n.prev = nil
			n.next = head
			if head != nil {
				head.prev = n
			}
			lv.slots[ring] = n
			lv.occ[ring>>6] |= 1 << (ring & 63)
			n.index = wheelIndex(l, int(ring))
			w.count++
			return true
		}
		shift += wheelSlotBits
	}
	return false
}

// unlink removes a cancelled node from its bucket in O(1).
func (w *wheel) unlink(n *node) {
	level, ring := wheelLoc(n.index)
	lv := &w.levels[level]
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		lv.slots[ring] = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if lv.slots[ring] == nil {
		lv.occ[ring>>6] &^= 1 << (ring & 63)
	}
	n.prev, n.next = nil, nil
	w.count--
}

// reset re-anchors every cursor at t. Legal only when no bucket holds
// a node; called on the first insert after the wheel drains so cursor
// drift from past flushing never forces far inserts onto the heap.
func (w *wheel) reset(t Time) {
	shift := uint(wheelShift)
	for l := range w.levels {
		w.levels[l].cur = uint64(t) >> shift
		shift += wheelSlotBits
	}
}

// nextOcc returns the smallest absolute slot >= lv.cur (within one
// rotation) whose bucket is non-empty, skipping empty runs through the
// occupancy bitmap.
func (lv *wheelLevel) nextOcc() (uint64, bool) {
	start := int(lv.cur) & wheelSlotMask
	for off := 0; off < wheelSlots; {
		ring := (start + off) & wheelSlotMask
		bit := ring & 63
		if word := lv.occ[ring>>6] >> bit; word != 0 {
			return lv.cur + uint64(off+bits.TrailingZeros64(word)), true
		}
		off += 64 - bit
	}
	return 0, false
}

// skipGap advances every cursor to the earliest occupied slot anywhere
// in the wheel, without walking the empty run one slot at a time —
// this is what makes a lone timer far in the future O(levels) to reach
// instead of O(gap/slotSpan). Cursors only ever move forward, and only
// over slots proven empty (the minimum is taken over every level's
// next occupied slot, so nothing occupied is jumped).
func (w *wheel) skipGap() {
	best := ^uint64(0) // earliest occupied slot start, in level-0 slot units
	for l, sh := 0, 0; l < wheelLevels; l, sh = l+1, sh+wheelSlotBits {
		if abs, ok := w.levels[l].nextOcc(); ok {
			if start := abs << sh; start < best {
				best = start
			}
		}
	}
	if best == ^uint64(0) {
		return
	}
	for l, sh := 0, 0; l < wheelLevels; l, sh = l+1, sh+wheelSlotBits {
		if c := best >> sh; c > w.levels[l].cur {
			w.levels[l].cur = c
		}
	}
}

// wheelAdd tries to file a freshly scheduled node into the wheel,
// reporting false when it belongs on the heap instead.
func (e *Engine) wheelAdd(n *node) bool {
	if e.noWheel || n.at-e.now < wheelMinDefer {
		return false
	}
	w := e.wheel
	if w == nil {
		w = &wheel{}
		e.wheel = w
	}
	if w.count == 0 {
		w.reset(e.now)
	}
	// The clock can trail the level-0 cursor: a peek (RunUntil,
	// TryAdvance) syncs the wheel up to the next event without popping
	// it. A deadline in an already-flushed level-0 slot would then fit
	// an unpulled higher-level slot whose span the cursor has partly
	// passed, below the bound syncWheel trusts; it belongs on the heap.
	if uint64(n.at)>>wheelShift < w.levels[0].cur {
		return false
	}
	return w.place(n)
}

// wheelFeed pulls level-(l+1) slots down whenever level l's cursor has
// reached the span they cover, recursing upward first so every pull
// happens while its own level is fed. This is the cascade: a bucket
// spanning 256 lower-level slots is exploded into them (or the heap)
// exactly when the cursor arrives at its start, never later.
func (e *Engine) wheelFeed(l int) {
	if l+1 >= wheelLevels {
		return
	}
	w := e.wheel
	for w.levels[l].cur >= w.levels[l+1].cur<<wheelSlotBits {
		e.wheelFeed(l + 1)
		e.wheelPull(l + 1)
	}
}

// wheelPull empties level l's current slot, re-filing each node into a
// shallower level or the heap, and advances the cursor past it.
func (e *Engine) wheelPull(l int) {
	w := e.wheel
	lv := &w.levels[l]
	ring := lv.cur & wheelSlotMask
	n := lv.slots[ring]
	lv.slots[ring] = nil
	lv.occ[ring>>6] &^= 1 << (ring & 63)
	lv.cur++
	for n != nil {
		next := n.next
		n.prev, n.next = nil, nil
		w.count--
		if !w.place(n) {
			e.push(n)
		}
		n = next
	}
}

// syncWheel flushes buckets into the heap until the heap's head — if
// any — is provably earlier than every wheel resident: residents at
// level l sit in slots >= cur[l], so their deadlines are >= cur[0]
// << wheelShift once the cascade invariant holds, and the loop stops
// as soon as heap[0].at is strictly below that bound (ties therefore
// always flush, and seq decides them in the heap exactly as before).
func (e *Engine) syncWheel() {
	w := e.wheel
	if w == nil || w.count == 0 {
		return
	}
	for w.count > 0 {
		lv := &w.levels[0]
		if len(e.heap) > 0 && e.heap[0].at < Time(lv.cur)<<wheelShift {
			return
		}
		e.wheelFeed(0)
		// The cursor may advance only up to the start of the next
		// unpulled level-1 slot: pulling it may deposit earlier work.
		limit := w.levels[1].cur << wheelSlotBits
		if abs, ok := lv.nextOcc(); ok && abs < limit {
			lv.cur = abs
			e.wheelPull(0)
		} else {
			lv.cur = limit
			w.skipGap()
		}
	}
}

// drainWheel moves every wheel resident into the heap (order is
// irrelevant — the heap re-establishes (at, seq) order).
func (e *Engine) drainWheel() {
	w := e.wheel
	if w == nil {
		return
	}
	for l := range w.levels {
		lv := &w.levels[l]
		for ring := range lv.slots {
			for n := lv.slots[ring]; n != nil; {
				next := n.next
				n.prev, n.next = nil, nil
				e.push(n)
				n = next
			}
			lv.slots[ring] = nil
		}
		lv.occ = [wheelSlots / 64]uint64{}
	}
	w.count = 0
}

// SetWheel toggles the timer-wheel backend (on by default). Disabling
// it drains every wheel resident into the heap, so pop order — already
// bit-identical by construction — is unaffected mid-run; benchmarks
// and differential tests use the off position as the pure-heap
// baseline.
func (e *Engine) SetWheel(on bool) {
	e.noWheel = !on
	if !on {
		e.drainWheel()
	}
}
