package flathash

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
)

func TestPutGetDelete(t *testing.T) {
	m := New[uint32](0)
	if _, ok := m.Get(0); ok {
		t.Fatal("hit on empty table")
	}
	// Key 0 must be storable (translation page 0 is a real key).
	s, inserted := m.Put(0, 7)
	if !inserted {
		t.Fatal("Put into an empty table did not insert")
	}
	if got, ok := m.Get(0); !ok || got != s || *m.At(got) != 7 {
		t.Fatalf("Get(0) = %v, %v", got, ok)
	}
	// Insert-if-absent: a present key answers its own slot, unchanged.
	if again, inserted := m.Put(0, 9); inserted || again != s || *m.At(again) != 7 {
		t.Fatalf("Put of a present key = %v, %v, value %d; want %v, false, 7", again, inserted, *m.At(again), s)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	if !m.Delete(0) {
		t.Fatal("Delete missed")
	}
	if m.Delete(0) {
		t.Fatal("double Delete succeeded")
	}
	if _, ok := m.Get(0); ok || m.Len() != 0 {
		t.Fatal("entry survived Delete")
	}
}

func TestGrowthKeepsEntries(t *testing.T) {
	m := New[uint32](0)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		m.Put(i, uint32(i))
	}
	if m.Len() != n {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := uint64(0); i < n; i++ {
		s, ok := m.Get(i)
		if !ok || *m.At(s) != uint32(i) || m.Key(s) != i {
			t.Fatalf("key %d lost or corrupted after growth", i)
		}
	}
}

func TestLRUOrder(t *testing.T) {
	m := New[uint32](8)
	a, _ := m.Put(1, 1)
	m.PushFront(a)
	b, _ := m.Put(2, 2)
	m.PushFront(b)
	c, _ := m.Put(3, 3)
	m.PushFront(c)
	// Order front→back: 3 2 1.
	wantOrder(t, m, []uint64{3, 2, 1})
	s, _ := m.Get(1)
	m.MoveToFront(s)
	wantOrder(t, m, []uint64{1, 3, 2})
	if m.Key(m.Back()) != 2 {
		t.Fatalf("Back = %d", m.Key(m.Back()))
	}
	// Delete the middle element; list shrinks, order preserved.
	m.Delete(3)
	wantOrder(t, m, []uint64{1, 2})
	// Untracked entries don't appear on the list.
	d, _ := m.Put(4, 4)
	if m.InList(d) {
		t.Fatal("fresh entry on list")
	}
	wantOrder(t, m, []uint64{1, 2})
	m.RemoveFromList(d) // no-op
	s, _ = m.Get(2)
	m.RemoveFromList(s)
	wantOrder(t, m, []uint64{1})
}

func wantOrder(t *testing.T, m *Map[uint32], want []uint64) {
	t.Helper()
	if m.ListLen() != len(want) {
		t.Fatalf("ListLen = %d, want %d", m.ListLen(), len(want))
	}
	var got []uint64
	for i := m.Front(); i != NilSlot; i = m.Next(i) {
		got = append(got, m.Key(i))
	}
	if len(got) != len(want) {
		t.Fatalf("list walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list walk = %v, want %v", got, want)
		}
	}
}

// cloneOf is CopyFrom into a zero Map — what the layers above do to
// clone a table.
func cloneOf[V any](m *Map[V]) *Map[V] {
	c := new(Map[V])
	c.CopyFrom(m)
	return c
}

func TestCloneIndependence(t *testing.T) {
	m := New[uint32](0)
	for i := uint64(0); i < 100; i++ {
		s, _ := m.Put(i, uint32(i))
		m.PushFront(s)
	}
	c := cloneOf(m)
	// Diverge the original.
	for i := uint64(0); i < 50; i++ {
		m.Delete(i)
	}
	m.Put(1000, 1)
	if c.Len() != 100 || c.ListLen() != 100 {
		t.Fatalf("clone mutated: Len %d ListLen %d", c.Len(), c.ListLen())
	}
	for i := uint64(0); i < 100; i++ {
		if s, ok := c.Get(i); !ok || *c.At(s) != uint32(i) {
			t.Fatalf("clone lost key %d", i)
		}
	}
	if _, ok := c.Get(1000); ok {
		t.Fatal("clone saw post-clone insert")
	}
}

// refMap is the reference model: Go map plus container/list, the exact
// structures flathash replaced. The differential test drives both with
// one operation stream and demands identical observable state.
type refMap struct {
	vals map[uint64]uint32
	lru  *list.List
	pos  map[uint64]*list.Element
}

func newRefMap() *refMap {
	return &refMap{vals: map[uint64]uint32{}, lru: list.New(), pos: map[uint64]*list.Element{}}
}

func (r *refMap) clone() *refMap {
	c := newRefMap()
	for k, v := range r.vals {
		c.vals[k] = v
	}
	for el := r.lru.Front(); el != nil; el = el.Next() {
		k := el.Value.(uint64)
		c.pos[k] = c.lru.PushBack(k)
	}
	return c
}

// TestDifferentialAgainstMapList drives a Map and the map+list
// reference with the same randomized op sequence — insert, lookup,
// delete, touch, evict-from-back, clone — and asserts identical
// observable state after every step.
func TestDifferentialAgainstMapList(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New[uint32](0)
		ref := newRefMap()
		const universe = 97 // prime, guarantees collisions and reuse
		for step := 0; step < 20000; step++ {
			key := uint64(rng.Intn(universe))
			switch op := rng.Intn(100); {
			case op < 30: // insert if absent, track as MRU either way
				val := uint32(rng.Uint32())
				s, inserted := m.Put(key, val)
				_, present := ref.vals[key]
				if inserted == present || m.Key(s) != key {
					t.Fatalf("seed %d step %d: Put(%d) = slot of %d, inserted %v; ref present %v",
						seed, step, key, m.Key(s), inserted, present)
				}
				if !m.InList(s) {
					m.PushFront(s)
				} else {
					m.MoveToFront(s)
				}
				if inserted {
					ref.vals[key] = val
				}
				if el, ok := ref.pos[key]; ok {
					ref.lru.MoveToFront(el)
				} else {
					ref.pos[key] = ref.lru.PushFront(key)
				}
			case op < 55: // lookup + touch on hit
				s, ok := m.Get(key)
				_, rok := ref.vals[key]
				if ok != rok {
					t.Fatalf("seed %d step %d: Get(%d) = %v, ref %v", seed, step, key, ok, rok)
				}
				if ok {
					if *m.At(s) != ref.vals[key] {
						t.Fatalf("seed %d step %d: value mismatch for %d", seed, step, key)
					}
					if m.InList(s) {
						m.MoveToFront(s)
						ref.lru.MoveToFront(ref.pos[key])
					}
				}
			case op < 75: // delete
				got := m.Delete(key)
				_, want := ref.vals[key]
				if got != want {
					t.Fatalf("seed %d step %d: Delete(%d) = %v, ref %v", seed, step, key, got, want)
				}
				delete(ref.vals, key)
				if el, ok := ref.pos[key]; ok {
					ref.lru.Remove(el)
					delete(ref.pos, key)
				}
			case op < 85: // evict the LRU entry
				b := m.Back()
				el := ref.lru.Back()
				if (b == NilSlot) != (el == nil) {
					t.Fatalf("seed %d step %d: Back = %v, ref empty=%v", seed, step, b, el == nil)
				}
				if b != NilSlot {
					k := m.Key(b)
					if k != el.Value.(uint64) {
						t.Fatalf("seed %d step %d: LRU victim %d, ref %d", seed, step, k, el.Value)
					}
					m.Delete(k)
					ref.lru.Remove(el)
					delete(ref.pos, k)
					delete(ref.vals, k)
				}
			case op < 90: // untrack without deleting
				if s, ok := m.Get(key); ok {
					m.RemoveFromList(s)
				}
				if el, ok := ref.pos[key]; ok {
					ref.lru.Remove(el)
					delete(ref.pos, key)
				}
			default: // clone and continue on the copies
				m = cloneOf(m)
				ref = ref.clone()
			}
			checkEqual(t, seed, step, m, ref)
		}
	}
}

// TestPutAtGrowBoundary fills tables through several doublings with a
// shuffled recency list. Whenever the next insert will grow the table,
// every present key is Put again first: each must answer its own slot
// without inserting, leave the slot array exactly as a twin table built
// without those Puts has it, and not grow it. The insert that follows
// then grows, and the recency order must survive the rehash.
func TestPutAtGrowBoundary(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, twin := New[uint32](0), New[uint32](0)
		ref := newRefMap()
		var keys []uint64
		for len(keys) < 1000 {
			if (m.Len()+1)*4 > len(m.slots)*3 {
				size := len(m.slots)
				for _, k := range keys {
					s, inserted := m.Put(k, 0)
					if inserted || m.Key(s) != k || *m.At(s) != ref.vals[k] {
						t.Fatalf("seed %d: Put of present key %d at the grow boundary inserted=%v", seed, k, inserted)
					}
				}
				if len(m.slots) != size || !slices.Equal(m.slots, twin.slots) {
					t.Fatalf("seed %d: Puts of present keys changed the layout at %d entries", seed, m.Len())
				}
			}
			key := rng.Uint64()
			if _, present := ref.vals[key]; present {
				continue
			}
			val := rng.Uint32()
			for _, tbl := range []*Map[uint32]{m, twin} {
				s, inserted := tbl.Put(key, val)
				if !inserted {
					t.Fatalf("seed %d: Put of absent key %d did not insert", seed, key)
				}
				tbl.PushFront(s)
			}
			keys = append(keys, key)
			ref.vals[key] = val
			ref.pos[key] = ref.lru.PushFront(key)
			// Touch an older entry so the list is not insertion order.
			old := keys[rng.Intn(len(keys))]
			for _, tbl := range []*Map[uint32]{m, twin} {
				s, _ := tbl.Get(old)
				tbl.MoveToFront(s)
			}
			ref.lru.MoveToFront(ref.pos[old])
			checkEqual(t, seed, len(keys), m, ref)
		}
	}
}

// checkEqual compares the full observable state of both models.
func checkEqual(t *testing.T, seed int64, step int, m *Map[uint32], ref *refMap) {
	t.Helper()
	if m.Len() != len(ref.vals) {
		t.Fatalf("seed %d step %d: Len = %d, ref %d", seed, step, m.Len(), len(ref.vals))
	}
	if m.ListLen() != ref.lru.Len() {
		t.Fatalf("seed %d step %d: ListLen = %d, ref %d", seed, step, m.ListLen(), ref.lru.Len())
	}
	for k, v := range ref.vals {
		s, ok := m.Get(k)
		if !ok || *m.At(s) != v {
			t.Fatalf("seed %d step %d: key %d missing or wrong value", seed, step, k)
		}
		_, tracked := ref.pos[k]
		if m.InList(s) != tracked {
			t.Fatalf("seed %d step %d: key %d InList = %v, ref %v", seed, step, k, m.InList(s), tracked)
		}
	}
	// Full recency order, front to back.
	i := m.Front()
	for el := ref.lru.Front(); el != nil; el = el.Next() {
		if i == NilSlot || m.Key(i) != el.Value.(uint64) {
			t.Fatalf("seed %d step %d: recency order diverged", seed, step)
		}
		i = m.Next(i)
	}
	if i != NilSlot {
		t.Fatalf("seed %d step %d: table list longer than reference", seed, step)
	}
}

// Steady-state operations on a warmed table must not allocate: this is
// the property the whole refactor exists for.
func TestSteadyStateZeroAlloc(t *testing.T) {
	m := New[uint32](0)
	const n = 1024
	for i := uint64(0); i < n; i++ {
		s, _ := m.Put(i, uint32(i))
		m.PushFront(s)
	}
	var k uint64
	allocs := testing.AllocsPerRun(1000, func() {
		// hit + touch
		s, _ := m.Get(k % n)
		m.MoveToFront(s)
		// delete + reinsert (churn at constant size)
		m.Delete(k % n)
		s, _ = m.Put(k%n, uint32(k))
		m.PushFront(s)
		k++
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocated %.1f objects/op, want 0", allocs)
	}
}
