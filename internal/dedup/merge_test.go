package dedup

import (
	"testing"

	"cagc/internal/flash"
)

// evicted stores fp at ppn as a live entry whose fingerprint the
// capacity bound has evicted — the only unindexed entry there is now
// that host writes stay outside the index. It leaves the index in
// exactly the state enforceCapacity leaves an evicted entry in, without
// imposing a bound on the rest of the test.
func evicted(t *testing.T, x *Index, fp Fingerprint, ppn flash.PPN) CID {
	t.Helper()
	c, err := x.Insert(fp, ppn)
	if err != nil {
		t.Fatal(err)
	}
	x.byFP.Delete(uint64(fp))
	x.entries[c].unindexed = true
	return c
}

func TestAdoptPrivate(t *testing.T) {
	x := NewIndex()
	x.SetCapacity(2)
	fp := OfUint64(1)
	c, _ := x.Insert(fp, 1)
	x.Insert(OfUint64(2), 2) // c is now the LRU entry
	ref, err := x.AdoptPrivate(c)
	if err != nil || ref != 2 {
		t.Fatalf("AdoptPrivate = %d, %v; want 2", ref, err)
	}
	// Adoption is a use: the next insert evicts the other entry, not c.
	x.Insert(OfUint64(3), 3)
	if got, ok := x.Lookup(fp); !ok || got != c {
		t.Fatalf("adopted content evicted: lookup = %v, %v", got, ok)
	}
	if x.Live() != 3 {
		t.Fatalf("Live = %d, want 3", x.Live())
	}
	_, peak, _ := x.DecRef(c)
	if peak != 2 {
		t.Fatalf("peak = %d, want 2", peak)
	}
	if _, err := x.AdoptPrivate(CID(99)); err == nil {
		t.Fatal("adoption into a dead CID accepted")
	}
}

func TestPublishMakesVisible(t *testing.T) {
	x := NewIndex()
	fp := OfUint64(2)
	c := evicted(t, x, fp, 10)
	if _, ok := x.Lookup(fp); ok {
		t.Fatal("evicted content visible to Lookup")
	}
	if err := x.Publish(c); err != nil {
		t.Fatal(err)
	}
	got, ok := x.Lookup(fp)
	if !ok || got != c {
		t.Fatalf("Lookup after publish = %v, %v", got, ok)
	}
	if idx, _ := x.Indexed(c); !idx {
		t.Fatal("Indexed false after publish")
	}
	// Re-publishing is a bug.
	if err := x.Publish(c); err == nil {
		t.Fatal("double publish accepted")
	}
}

func TestPublishDuplicateFingerprintRejected(t *testing.T) {
	x := NewIndex()
	fp := OfUint64(3)
	c := evicted(t, x, fp, 2)
	if _, err := x.Insert(fp, 1); err != nil {
		t.Fatal(err)
	}
	if err := x.Publish(c); err == nil {
		t.Fatal("publishing a duplicate fingerprint accepted")
	}
}

func TestMergeInto(t *testing.T) {
	x := NewIndex()
	fp := OfUint64(4)
	from := evicted(t, x, fp, 2)
	x.IncRef(from) // ref 2
	to, _ := x.Insert(fp, 1)
	x.IncRef(to) // ref 2

	ref, err := x.MergeInto(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if ref != 4 {
		t.Fatalf("merged ref = %d, want 4", ref)
	}
	if x.Live() != 1 {
		t.Fatalf("Live = %d, want 1", x.Live())
	}
	if _, err := x.Ref(from); err == nil {
		t.Fatal("merged-away CID still alive")
	}
	// Peak reflects the merged count.
	_, peak, _ := x.DecRef(to)
	if peak != 4 {
		t.Fatalf("peak = %d, want 4", peak)
	}
}

func TestMergeErrors(t *testing.T) {
	x := NewIndex()
	b := evicted(t, x, OfUint64(6), 2)
	c := evicted(t, x, OfUint64(5), 3)
	a, _ := x.Insert(OfUint64(5), 1)
	d, _ := x.Insert(OfUint64(7), 4)

	if _, err := x.MergeInto(a, a); err == nil {
		t.Error("self-merge accepted")
	}
	if _, err := x.MergeInto(b, a); err == nil {
		t.Error("merge of different fingerprints accepted")
	}
	if _, err := x.MergeInto(c, b); err == nil {
		t.Error("merge into unindexed target accepted")
	}
	if _, err := x.MergeInto(a, d); err == nil {
		t.Error("merge of indexed source accepted")
	}
	if _, err := x.MergeInto(CID(99), a); err == nil {
		t.Error("merge of dead source accepted")
	}
	if _, err := x.MergeInto(c, CID(99)); err == nil {
		t.Error("merge into dead target accepted")
	}
}

func TestUnindexedDecRefToZero(t *testing.T) {
	x := NewIndex()
	fp := OfUint64(8)
	c := evicted(t, x, fp, 1)
	ref, peak, err := x.DecRef(c)
	if err != nil || ref != 0 || peak != 1 {
		t.Fatalf("DecRef = %d, %d, %v", ref, peak, err)
	}
	// Must not have disturbed the (empty) fingerprint index.
	if _, ok := x.Lookup(fp); ok {
		t.Fatal("fingerprint visible after unindexed removal")
	}
	if x.Live() != 0 {
		t.Fatalf("Live = %d", x.Live())
	}
}

func TestIndexedDeadCID(t *testing.T) {
	x := NewIndex()
	if _, err := x.Indexed(CID(0)); err == nil {
		t.Fatal("Indexed on dead CID accepted")
	}
	if err := x.Publish(CID(0)); err == nil {
		t.Fatal("Publish on dead CID accepted")
	}
}

func TestCAGCLifecycleScenario(t *testing.T) {
	// Simulates the CAGC flow: three user writes of the same content
	// stay outside the index as private pages; GC hashes them one by one.
	x := NewIndex()
	fp := OfUint64(9)

	// GC migrates the first: miss -> insert.
	if _, ok := x.Lookup(fp); ok {
		t.Fatal("premature index hit")
	}
	c1, err := x.Insert(fp, 1)
	if err != nil {
		t.Fatal(err)
	}
	// GC migrates the second: hit -> adopt into c1.
	hit, ok := x.Lookup(fp)
	if !ok || hit != c1 {
		t.Fatalf("lookup = %v, %v", hit, ok)
	}
	if ref, err := x.AdoptPrivate(c1); err != nil || ref != 2 {
		t.Fatalf("adopt second: ref=%d err=%v", ref, err)
	}
	// GC migrates the third: hit -> adopt.
	if ref, err := x.AdoptPrivate(c1); err != nil || ref != 3 {
		t.Fatalf("adopt third: ref=%d err=%v", ref, err)
	}
	if x.Live() != 1 {
		t.Fatalf("Live = %d, want 1 after GC dedup", x.Live())
	}
	if h := x.RefHistogram(); h != [4]int{0, 0, 1, 0} {
		t.Fatalf("histogram = %v", h)
	}
	if st := x.Stats(); st.Inserts != 1 || st.Removals != 0 {
		t.Fatalf("stats %+v: private pages must not count as inserts or removals", st)
	}
}
