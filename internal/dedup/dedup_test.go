package dedup

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"cagc/internal/flash"
)

func TestFingerprintOfDeterministic(t *testing.T) {
	a := Of([]byte("hello flash"))
	b := Of([]byte("hello flash"))
	c := Of([]byte("hello flush"))
	if a != b {
		t.Error("same content, different fingerprints")
	}
	if a == c {
		t.Error("different content, same fingerprint")
	}
	if a == Zero {
		t.Error("fingerprint collided with Zero sentinel")
	}
}

// Of tells every one-byte content apart, and none fingerprints to Zero.
func TestFingerprintOfStrong(t *testing.T) {
	seen := map[Fingerprint]byte{}
	for b := 0; b < 256; b++ {
		fp := Of([]byte{byte(b)})
		if fp == Zero {
			t.Errorf("Of(%d) is the Zero sentinel", b)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("Of(%d) == Of(%d)", b, prev)
		}
		seen[fp] = byte(b)
	}
}

func TestFingerprintOfUint64Spread(t *testing.T) {
	seen := make(map[Fingerprint]bool)
	for i := uint64(0); i < 10000; i++ {
		f := OfUint64(i)
		if f == Zero {
			t.Fatalf("OfUint64(%d) = Zero", i)
		}
		if seen[f] {
			t.Fatalf("collision at %d", i)
		}
		seen[f] = true
	}
}

func TestIndexInsertLookup(t *testing.T) {
	x := NewIndex()
	if _, ok := x.Lookup(OfUint64(1)); ok {
		t.Fatal("lookup hit on empty index")
	}
	c, err := x.Insert(OfUint64(1), 42)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := x.Lookup(OfUint64(1))
	if !ok || got != c {
		t.Fatalf("lookup = %v, %v; want %v, true", got, ok, c)
	}
	if p, _ := x.PPN(c); p != 42 {
		t.Fatalf("PPN = %d, want 42", p)
	}
	if r, _ := x.Ref(c); r != 1 {
		t.Fatalf("Ref = %d, want 1", r)
	}
	if f, _ := x.FP(c); f != OfUint64(1) {
		t.Fatalf("FP mismatch")
	}
	if x.Live() != 1 {
		t.Fatalf("Live = %d", x.Live())
	}
}

func TestIndexDoubleInsertRejected(t *testing.T) {
	x := NewIndex()
	if _, err := x.Insert(OfUint64(9), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Insert(OfUint64(9), 2); err == nil {
		t.Fatal("duplicate insert accepted")
	}
}

func TestIndexRefCountLifecycle(t *testing.T) {
	x := NewIndex()
	c, _ := x.Insert(OfUint64(5), 100)
	for want := 2; want <= 5; want++ {
		if r, err := x.IncRef(c); err != nil || r != want {
			t.Fatalf("IncRef -> %d, %v; want %d", r, err, want)
		}
	}
	for want := 4; want >= 1; want-- {
		r, peak, err := x.DecRef(c)
		if err != nil || r != want || peak != 5 {
			t.Fatalf("DecRef -> %d peak %d, %v; want %d peak 5", r, peak, err, want)
		}
	}
	// Final reference.
	r, peak, err := x.DecRef(c)
	if err != nil || r != 0 || peak != 5 {
		t.Fatalf("final DecRef -> %d peak %d err %v", r, peak, err)
	}
	if x.Live() != 0 {
		t.Fatalf("Live = %d after removal", x.Live())
	}
	if _, ok := x.Lookup(OfUint64(5)); ok {
		t.Fatal("removed fingerprint still found")
	}
	// Operations on a dead CID fail.
	if _, err := x.IncRef(c); !errors.Is(err, ErrBadCID) {
		t.Fatalf("IncRef on dead CID: %v", err)
	}
	if _, _, err := x.DecRef(c); !errors.Is(err, ErrBadCID) {
		t.Fatalf("DecRef on dead CID: %v", err)
	}
	if _, err := x.Ref(c); !errors.Is(err, ErrBadCID) {
		t.Fatalf("Ref on dead CID: %v", err)
	}
	if _, err := x.PPN(c); !errors.Is(err, ErrBadCID) {
		t.Fatalf("PPN on dead CID: %v", err)
	}
	if err := x.SetPPN(c, 7); !errors.Is(err, ErrBadCID) {
		t.Fatalf("SetPPN on dead CID: %v", err)
	}
	_, err = x.FP(c)
	if !errors.Is(err, ErrBadCID) {
		t.Fatalf("FP on dead CID: %v", err)
	}
	// The error still names the CID.
	if want := fmt.Sprintf("%v: %d", ErrBadCID, c); err.Error() != want {
		t.Fatalf("dead-CID error reads %q, want %q", err, want)
	}
}

func TestIndexCIDRecycling(t *testing.T) {
	x := NewIndex()
	c1, _ := x.Insert(OfUint64(1), 1)
	if _, _, err := x.DecRef(c1); err != nil {
		t.Fatal(err)
	}
	c2, _ := x.Insert(OfUint64(2), 2)
	if c2 != c1 {
		t.Fatalf("CID not recycled: got %d, want %d", c2, c1)
	}
	// Old fingerprint must not resolve to the recycled CID.
	if _, ok := x.Lookup(OfUint64(1)); ok {
		t.Fatal("stale fingerprint resolves after recycling")
	}
	if f, _ := x.FP(c2); f != OfUint64(2) {
		t.Fatal("recycled CID has stale fingerprint")
	}
}

func TestIndexSetPPN(t *testing.T) {
	x := NewIndex()
	c, _ := x.Insert(OfUint64(3), 10)
	if err := x.SetPPN(c, 999); err != nil {
		t.Fatal(err)
	}
	if p, _ := x.PPN(c); p != 999 {
		t.Fatalf("PPN = %d after SetPPN", p)
	}
}

func TestIndexStats(t *testing.T) {
	x := NewIndex()
	fp := OfUint64(7)
	x.Lookup(fp) // miss
	c, _ := x.Insert(fp, 1)
	x.Lookup(fp) // hit
	x.Lookup(fp) // hit
	st := x.Stats()
	if st.Lookups != 3 || st.Hits != 2 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	x.IncRef(c)
	x.DecRef(c)
	x.DecRef(c)
	if st := x.Stats(); st.Removals != 1 || st.PeakCount != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// An empty index has counted no lookups, so no hits to divide.
func TestDedupRatioEmpty(t *testing.T) {
	if st := NewIndex().Stats(); st != (Stats{}) {
		t.Fatalf("empty index stats = %+v", st)
	}
}

func TestRefHistogram(t *testing.T) {
	x := NewIndex()
	mk := func(id uint64, refs int) {
		c, err := x.Insert(OfUint64(id), flash.PPN(id))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < refs; i++ {
			if _, err := x.IncRef(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	mk(1, 1)
	mk(2, 1)
	mk(3, 2)
	mk(4, 3)
	mk(5, 7)
	h := x.RefHistogram()
	if h != [4]int{2, 1, 1, 1} {
		t.Fatalf("histogram = %v, want [2 1 1 1]", h)
	}
}

// Property: for any sequence of inserts/incs/decs, Live equals the
// number of distinct fingerprints with positive refcount, and refcounts
// never go negative.
func TestIndexRefcountInvariantProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		x := NewIndex()
		refs := make(map[Fingerprint]int)
		cids := make(map[Fingerprint]CID)
		for _, op := range ops {
			fp := OfUint64(uint64(op % 16)) // small content universe forces sharing
			switch (op >> 4) % 3 {
			case 0: // write: inc if present, insert otherwise
				if c, ok := x.Lookup(fp); ok {
					if _, err := x.IncRef(c); err != nil {
						return false
					}
					refs[fp]++
				} else {
					c, err := x.Insert(fp, flash.PPN(op))
					if err != nil {
						return false
					}
					cids[fp] = c
					refs[fp] = 1
				}
			case 1, 2: // delete one reference if present
				if refs[fp] > 0 {
					r, _, err := x.DecRef(cids[fp])
					if err != nil {
						return false
					}
					refs[fp]--
					if r != refs[fp] {
						return false
					}
				}
			}
		}
		live := 0
		for fp, r := range refs {
			if r > 0 {
				live++
				got, err := x.Ref(cids[fp])
				if err != nil || got != r {
					return false
				}
			}
		}
		return x.Live() == live
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
