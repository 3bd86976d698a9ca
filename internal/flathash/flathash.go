// Package flathash provides the flat associative structure backing the
// simulator's hot-path bookkeeping: an open-addressed hash table over
// 64-bit keys with an intrusive recency (LRU) list threaded through the
// slot array.
//
// Design, and why each choice matters here:
//
//   - Open addressing with linear probing over a power-of-two slot
//     array. A lookup is one multiply (Fibonacci hashing) and a short
//     forward scan of contiguous memory — no per-bucket pointers, no
//     bucket allocations, unlike Go's built-in map, whose buckets were
//     the single largest allocation source of the simulator's replay
//     phase.
//
//   - Backward-shift deletion instead of tombstones. Deleting an entry
//     shifts the displaced tail of its probe cluster back into the
//     hole, so the table never accumulates dead slots, probe distances
//     never degrade over a long simulation, and — critically — the
//     whole table remains a plain value array: CopyFrom is a single
//     flat copy() with no compaction or rehash pass (the warm-state
//     snapshot cache clones these tables on every sweep point).
//
//   - An intrusive doubly-linked recency list whose prev/next fields
//     live inside the slots and hold slot indices, not pointers. This
//     replaces one container/list.List plus one position map per LRU
//     (two allocations per tracked entry) with zero allocations, and —
//     because links are indices — it too survives CopyFrom's flat
//     copy verbatim. When backward-shift deletion moves a slot, the moved
//     entry's neighbours are re-pointed in O(1), preserving the exact
//     recency order.
//
// Every operation is deterministic: no map iteration anywhere, so two
// tables driven by the same operation sequence are bit-identical —
// including eviction order — which is what the simulator's
// reproducibility contract requires (see the map-iteration lint test at
// the repository root).
//
// Slot indices returned by Get/Put are stable only until the next
// mutating call (an inserting Put may grow the table, Delete may shift
// slots); use them immediately, never store them.
package flathash

import "unsafe"

// List-link sentinels. A slot's prev field doubles as the membership
// marker: unlinked means "not on the recency list" (distinct from being
// at the head, whose prev is nilSlot).
const (
	// NilSlot is returned by Get on a miss and by Front/Back/Next when
	// the list (or its remainder) is empty.
	NilSlot int32 = -1

	unlinked int32 = -2
)

// minSlots keeps the smallest table one cache line's worth of slots.
const minSlots = 8

// slot is one table cell. With V = uint32 a slot is 24 bytes, so a
// probe cluster of several entries fits in two cache lines.
type slot[V any] struct {
	key  uint64
	val  V
	prev int32 // recency list toward MRU; unlinked = not on the list
	next int32 // recency list toward LRU
	used bool
}

// Map is an open-addressed uint64→V hash table with an intrusive
// recency list. The zero value is not ready to use; call New.
type Map[V any] struct {
	slots []slot[V]
	mask  uint64 // len(slots)-1
	shift uint   // 64 - log2(len(slots)); Fibonacci hash keeps high bits
	n     int    // occupied slots
	head  int32  // most recently used, NilSlot when list empty
	tail  int32  // least recently used, NilSlot when list empty
	nlist int    // entries currently on the recency list
}

// New returns a table pre-sized so that hint entries fit without
// growing (subject to the ¾ load-factor bound).
func New[V any](hint int) *Map[V] {
	size := minSlots
	for size*3 < hint*4 { // size * ¾ < hint
		size *= 2
	}
	m := &Map[V]{head: NilSlot, tail: NilSlot}
	m.init(size)
	return m
}

func (m *Map[V]) init(size int) {
	m.slots = make([]slot[V], size)
	m.mask = uint64(size - 1)
	m.shift = 64 - log2(size)
	for i := range m.slots {
		m.slots[i].prev = unlinked
		m.slots[i].next = unlinked
	}
}

func log2(size int) uint {
	var l uint
	for 1<<l < size {
		l++
	}
	return l
}

// home returns key's preferred slot. Fibonacci hashing: the golden-
// ratio multiplier diffuses sequential keys (translation-page ids)
// across the table; taking the high bits keeps the full 64-bit product
// in play.
func (m *Map[V]) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> m.shift
}

// dist returns how far slot i is from key's home, in probe order.
func (m *Map[V]) dist(i, home uint64) uint64 {
	return (i - home) & m.mask
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int { return m.n }

// Get returns the slot holding key, or (NilSlot, false). Backward-
// shift deletion guarantees every probe chain is gap-free, so the scan
// terminates at the first empty slot; the ¾ load bound keeps chains
// short.
func (m *Map[V]) Get(key uint64) (int32, bool) {
	i := m.home(key)
	for {
		s := &m.slots[i]
		if !s.used {
			return NilSlot, false
		}
		if s.key == key {
			return int32(i), true
		}
		i = (i + 1) & m.mask
	}
}

// Put stores key→val if key is absent, in one probe. It returns the
// slot holding key and whether this call inserted it; a present key
// keeps its value and its recency-list position. A new entry starts off
// the recency list. The table grows only on a real insert, so a failed
// Put never changes the layout.
func (m *Map[V]) Put(key uint64, val V) (int32, bool) {
	i := m.home(key)
	for m.slots[i].used {
		if m.slots[i].key == key {
			return int32(i), false
		}
		i = (i + 1) & m.mask
	}
	if (m.n+1)*4 > len(m.slots)*3 {
		m.grow()
		i = m.home(key)
		for m.slots[i].used {
			i = (i + 1) & m.mask
		}
	}
	m.slots[i] = slot[V]{key: key, val: val, prev: unlinked, next: unlinked, used: true}
	m.n++
	return int32(i), true
}

// Delete removes key, unlinking it from the recency list if present,
// and reports whether it was stored. The probe cluster behind the hole
// is shifted back (no tombstones); recency links of moved entries are
// fixed up in place.
func (m *Map[V]) Delete(key uint64) bool {
	i, ok := m.Get(key)
	if !ok {
		return false
	}
	m.deleteSlot(uint64(i))
	return true
}

func (m *Map[V]) deleteSlot(i uint64) {
	if m.slots[i].prev != unlinked {
		m.unlink(int32(i))
	}
	// Backward shift: pull displaced entries of the cluster into the
	// hole until a slot that is empty or already home terminates it.
	j := i
	for {
		j = (j + 1) & m.mask
		s := &m.slots[j]
		if !s.used {
			break
		}
		h := m.home(s.key)
		if m.dist(j, h) >= m.dist(j, i) {
			m.moveSlot(j, i)
			i = j
		}
	}
	var zero slot[V]
	zero.prev, zero.next = unlinked, unlinked
	m.slots[i] = zero
	m.n--
}

// moveSlot relocates the entry in slot from into the empty slot to,
// re-pointing its recency-list neighbours (and head/tail) at the new
// index so the list order is untouched.
func (m *Map[V]) moveSlot(from, to uint64) {
	s := m.slots[from]
	m.slots[to] = s
	if s.prev == unlinked {
		return
	}
	if s.prev == NilSlot {
		m.head = int32(to)
	} else {
		m.slots[s.prev].next = int32(to)
	}
	if s.next == NilSlot {
		m.tail = int32(to)
	} else {
		m.slots[s.next].prev = int32(to)
	}
}

// grow doubles the table. Entries are re-probed into the new array;
// the recency list is rebuilt in its exact prior order.
func (m *Map[V]) grow() {
	old := m.slots
	oldHead := m.head
	m.init(len(old) * 2)
	m.n = 0
	m.head, m.tail = NilSlot, NilSlot
	m.nlist = 0
	// Re-insert in slot order (deterministic), remembering where each
	// old slot landed so the list can be re-threaded afterwards.
	newAt := make([]int32, len(old))
	for i := range old {
		if !old[i].used {
			continue
		}
		j := m.home(old[i].key)
		for m.slots[j].used {
			j = (j + 1) & m.mask
		}
		m.slots[j] = slot[V]{key: old[i].key, val: old[i].val, prev: unlinked, next: unlinked, used: true}
		m.n++
		newAt[i] = int32(j)
	}
	for i := oldHead; i != NilSlot; i = old[i].next {
		m.pushBack(newAt[i])
	}
}

// Key returns the key stored in slot i (which must be occupied).
func (m *Map[V]) Key(i int32) uint64 { return m.slots[i].key }

// At returns a pointer to slot i's value, valid until the next
// mutating call.
func (m *Map[V]) At(i int32) *V { return &m.slots[i].val }

// --- intrusive recency list ---

// InList reports whether slot i is on the recency list.
func (m *Map[V]) InList(i int32) bool { return m.slots[i].prev != unlinked }

// ListLen returns how many entries are on the recency list (entries
// can be stored without being tracked).
func (m *Map[V]) ListLen() int { return m.nlist }

// Back returns the least recently used slot, or NilSlot.
func (m *Map[V]) Back() int32 { return m.tail }

// Next returns the slot after i in recency order (toward LRU), or
// NilSlot at the end. i must be on the list.
func (m *Map[V]) Next(i int32) int32 { return m.slots[i].next }

// PushFront links slot i at the MRU end. i must not already be on the
// list.
func (m *Map[V]) PushFront(i int32) {
	s := &m.slots[i]
	s.prev = NilSlot
	s.next = m.head
	if m.head != NilSlot {
		m.slots[m.head].prev = i
	}
	m.head = i
	if m.tail == NilSlot {
		m.tail = i
	}
	m.nlist++
}

func (m *Map[V]) pushBack(i int32) {
	s := &m.slots[i]
	s.next = NilSlot
	s.prev = m.tail
	if m.tail != NilSlot {
		m.slots[m.tail].next = i
	}
	m.tail = i
	if m.head == NilSlot {
		m.head = i
	}
	m.nlist++
}

// MoveToFront makes slot i the MRU entry. i must be on the list.
func (m *Map[V]) MoveToFront(i int32) {
	if m.head == i {
		return
	}
	m.unlink(i)
	m.PushFront(i)
}

// RemoveFromList unlinks slot i if it is on the recency list; the
// entry itself stays stored.
func (m *Map[V]) RemoveFromList(i int32) {
	if m.slots[i].prev != unlinked {
		m.unlink(i)
	}
}

func (m *Map[V]) unlink(i int32) {
	s := &m.slots[i]
	if s.prev == NilSlot {
		m.head = s.next
	} else {
		m.slots[s.prev].next = s.next
	}
	if s.next == NilSlot {
		m.tail = s.prev
	} else {
		m.slots[s.next].prev = s.prev
	}
	s.prev, s.next = unlinked, unlinked
	m.nlist--
}

// CopyFrom makes m equal src, reusing m's slot array, and returns the
// bytes copied. Slots hold only values and index links — no pointers —
// so the copy is one flat copy of the slot array.
func (m *Map[V]) CopyFrom(src *Map[V]) int {
	slots := m.slots
	*m = *src
	m.slots = append(slots[:0], src.slots...)
	return len(src.slots) * int(unsafe.Sizeof(slot[V]{}))
}
