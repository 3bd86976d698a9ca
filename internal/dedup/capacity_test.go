package dedup

import (
	"testing"
	"testing/quick"

	"cagc/internal/flash"
)

func TestCapacityEvictsLRU(t *testing.T) {
	x := NewIndex()
	x.SetCapacity(2)
	a, _ := x.Insert(OfUint64(1), 1)
	b, _ := x.Insert(OfUint64(2), 2)
	// Touch a so b becomes the LRU.
	if _, ok := x.Lookup(OfUint64(1)); !ok {
		t.Fatal("a missing")
	}
	c, _ := x.Insert(OfUint64(3), 3)
	// b must have been evicted.
	if _, ok := x.Lookup(OfUint64(2)); ok {
		t.Fatal("LRU entry survived over capacity")
	}
	if _, ok := x.Lookup(OfUint64(1)); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if _, ok := x.Lookup(OfUint64(3)); !ok {
		t.Fatal("newest entry evicted")
	}
	if x.Evictions() != 1 {
		t.Fatalf("evictions = %d", x.Evictions())
	}
	// Evicted content keeps its refcount and stays alive.
	if r, err := x.Ref(b); err != nil || r != 1 {
		t.Fatalf("evicted entry ref = %d, %v", r, err)
	}
	if idx, _ := x.Indexed(b); idx {
		t.Fatal("evicted entry still flagged indexed")
	}
	_ = a
	_ = c
}

func TestCapacityZeroMeansUnlimited(t *testing.T) {
	x := NewIndex()
	for i := uint64(0); i < 100; i++ {
		if _, err := x.Insert(OfUint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if x.Evictions() != 0 {
		t.Fatal("evictions without a bound")
	}
	if x.Capacity() != 0 {
		t.Fatal("capacity not zero")
	}
}

func TestCapacityAdoptsExistingEntries(t *testing.T) {
	x := NewIndex()
	for i := uint64(0); i < 10; i++ {
		if _, err := x.Insert(OfUint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	x.SetCapacity(4)
	indexed := 0
	for i := uint64(0); i < 10; i++ {
		if _, ok := x.Lookup(OfUint64(i)); ok {
			indexed++
		}
	}
	if indexed != 4 {
		t.Fatalf("indexed = %d after capping at 4", indexed)
	}
	if x.Live() != 10 {
		t.Fatalf("live = %d, contents must survive eviction", x.Live())
	}
}

func TestCapacityPublishEvicts(t *testing.T) {
	x := NewIndex()
	x.SetCapacity(1)
	u, _ := x.Insert(OfUint64(2), 2)
	x.Insert(OfUint64(1), 1) // evicts u
	if err := x.Publish(u); err != nil {
		t.Fatal(err)
	}
	if _, ok := x.Lookup(OfUint64(1)); ok {
		t.Fatal("old entry survived publish over capacity")
	}
	if _, ok := x.Lookup(OfUint64(2)); !ok {
		t.Fatal("published entry missing")
	}
}

func TestCapacityRepublishAfterEviction(t *testing.T) {
	// After eviction, a new copy of the same content may be indexed; the
	// two contents then coexist (cache-miss cost, not corruption).
	x := NewIndex()
	x.SetCapacity(1)
	fp := OfUint64(7)
	a, _ := x.Insert(fp, 1)
	b, _ := x.Insert(OfUint64(8), 2) // evicts a
	u, err := x.Insert(fp, 3)        // evicts b
	if err != nil {
		t.Fatal(err)
	}
	got, ok := x.Lookup(fp)
	if !ok || got != u {
		t.Fatalf("lookup after republish = %v, %v", got, ok)
	}
	// All three contents alive.
	if x.Live() != 3 {
		t.Fatalf("live = %d", x.Live())
	}
	_ = a
	_ = b
}

// Property: under any operation mix with a small capacity, the number
// of indexed entries never exceeds the bound and refcount bookkeeping
// stays exact.
func TestCapacityInvariantProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		x := NewIndex()
		x.SetCapacity(3)
		refs := map[Fingerprint]int{}
		cids := map[Fingerprint]CID{}
		for _, op := range ops {
			fp := OfUint64(uint64(op % 12))
			switch (op >> 4) % 3 {
			case 0:
				if c, ok := x.Lookup(fp); ok {
					if _, err := x.IncRef(c); err != nil {
						return false
					}
					refs[fp]++
				} else if refs[fp] == 0 {
					c, err := x.Insert(fp, flash.PPN(op))
					if err != nil {
						return false
					}
					cids[fp] = c
					refs[fp] = 1
				}
			default:
				if refs[fp] > 0 {
					if _, _, err := x.DecRef(cids[fp]); err != nil {
						return false
					}
					refs[fp]--
				}
			}
			// Count indexed entries by probing the whole universe
			// (direct table probes: no stats or recency side effects).
			indexed := 0
			for i := uint64(0); i < 12; i++ {
				f := OfUint64(i)
				if s, ok := x.byFP.Get(uint64(f)); ok {
					indexed++
					if idx, err := x.Indexed(*x.byFP.At(s)); err != nil || !idx {
						return false
					}
				}
			}
			if indexed > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
