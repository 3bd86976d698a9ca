package dedup

import (
	"testing"

	"cagc/internal/flash"
)

// Steady-state fingerprint-index operations must not allocate: the
// open-addressed table and its intrusive recency list exist so that the
// per-write bookkeeping of the replay phase is free of map-bucket and
// list-node garbage. These guards mirror the event-heap ones: any
// regression that reintroduces an allocating structure on these paths
// fails here before it shows up in the substrate numbers.

// warmIndex builds an index with n live contents and a capacity bound,
// then runs one churn cycle so entries/freeIDs reach steady capacity.
func warmIndex(t *testing.T, n int) *Index {
	t.Helper()
	x := NewIndex()
	x.SetCapacity(n)
	for i := 0; i < n; i++ {
		if _, err := x.Insert(OfUint64(uint64(i)), flash.PPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := x.Insert(OfUint64(1<<30), flash.PPN(n))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := x.DecRef(c); err != nil {
		t.Fatal(err)
	}
	// The churn evicted one fingerprint, leaving the recency list one
	// below capacity; top it back up so steady-state inserts evict.
	if _, err := x.Insert(OfUint64(1<<31), flash.PPN(n+1)); err != nil {
		t.Fatal(err)
	}
	return x
}

func TestIndexLookupRefcountAllocs(t *testing.T) {
	const n = 256
	x := warmIndex(t, n)
	var k uint64
	allocs := testing.AllocsPerRun(1000, func() {
		// Hit + LRU touch, then a refcount round-trip.
		c, ok := x.Lookup(OfUint64(k % n))
		if ok {
			if _, err := x.IncRef(c); err != nil {
				t.Fatal(err)
			}
			if _, _, err := x.DecRef(c); err != nil {
				t.Fatal(err)
			}
		}
		// Miss.
		x.Lookup(OfUint64(1 << 40))
		k++
	})
	if allocs != 0 {
		t.Fatalf("steady-state lookup/refcount allocated %.1f objects/op, want 0", allocs)
	}
}

func TestIndexInsertEvictChurnAllocs(t *testing.T) {
	const n = 256
	x := warmIndex(t, n)
	k := uint64(1 << 35)
	allocs := testing.AllocsPerRun(1000, func() {
		// Fresh content: insert (evicting an LRU fingerprint while any
		// warm one remains indexed), then drop it to death so the CID
		// and table slot recycle — constant-size churn.
		c, err := x.Insert(OfUint64(k), flash.PPN(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := x.DecRef(c); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("steady-state insert/evict churn allocated %.1f objects/op, want 0", allocs)
	}
	// warmIndex left fingerprints 1..n-1 indexed; the churn must have
	// evicted at least one.
	indexed := 0
	for i := uint64(1); i < n; i++ {
		if _, ok := x.Lookup(OfUint64(i)); ok {
			indexed++
		}
	}
	if indexed == n-1 {
		t.Fatal("churn never exercised the capacity-eviction path")
	}
}
