package ftl

import (
	"testing"

	"cagc/internal/dedup"
)

// Steady-state guards for the flat structures the replay phase hammers:
// the cached mapping table (one open-addressed, LRU-threaded page
// table) and the intrusive CID→LPN reverse map. Companions to the
// dedup-index guards and the event-heap guards of the bench substrate.

func TestCMTSteadyStateAllocs(t *testing.T) {
	c := newCMT(4 * mapEntriesPerPage) // 4 cached translation pages
	// Warm past capacity so the miss path below always evicts.
	for p := uint64(0); p < 8; p++ {
		c.access(p*mapEntriesPerPage, p%2 == 0)
	}
	evBefore := c.evictions
	var k uint64
	allocs := testing.AllocsPerRun(1000, func() {
		// Hit + touch (page 0 was just accessed below on the previous
		// iteration or during warmup for the first).
		c.access(0, false)
		// Miss on an always-fresh page: insert + evict (+ write-back
		// accounting every other access).
		c.access((100+k)*mapEntriesPerPage, k%2 == 0)
		c.access(0, true) // keep page 0 resident and dirty
		k++
	})
	if allocs != 0 {
		t.Fatalf("steady-state CMT access allocated %.1f objects/op, want 0", allocs)
	}
	if c.evictions == evBefore {
		t.Fatal("miss path never evicted")
	}
}

// CheckInvariants runs after every run, fleet device and batch seed; a
// check that allocates taxes a 256-device fleet far more than it shows
// on one run.
func TestCheckInvariantsAllocatesNothing(t *testing.T) {
	for _, opts := range []Options{BaselineOptions(), InlineDedupeOptions(), CAGCOptions()} {
		f := newFTL(t, opts)
		// A content pool as large as the address space: duplicates for
		// the index, but not so many that Inline-Dedupe never collects.
		churn(t, f, int(f.LogicalPages())*4, f.LogicalPages(), 5)
		if f.Stats().GCInvocations == 0 {
			t.Fatalf("%s: GC never ran", opts.SchemeName())
		}
		var err error
		allocs := testing.AllocsPerRun(20, func() { err = f.CheckInvariants() })
		if err != nil {
			t.Fatalf("%s: %v", opts.SchemeName(), err)
		}
		if allocs != 0 {
			t.Errorf("%s: CheckInvariants allocated %.1f objects per call, want 0", opts.SchemeName(), allocs)
		}
	}
}

func TestRevMapSteadyStateAllocs(t *testing.T) {
	var m revMap
	const cids, lpns = 64, 512
	// Warm: link every LPN once so the tables cover the address space.
	at := make([]dedup.CID, lpns) // the forward mapping the map mirrors
	for l := range at {
		at[l] = dedup.CID(l % cids)
		m.move(uint32(l), dedup.NilCID, at[l])
	}
	rebind := func(l int, to dedup.CID) {
		m.move(uint32(l), at[l], to)
		at[l] = to
	}
	var k int
	allocs := testing.AllocsPerRun(1000, func() {
		// Overwrites, a trim and its rewrite, then a GC merge of one
		// whole chain into another.
		for i := 0; i < 8; i++ {
			rebind((k*8+i)%lpns, dedup.CID((k+i)%cids))
		}
		rebind(k%lpns, dedup.NilCID)
		rebind(k%lpns, dedup.CID(k%cids))
		from, to := dedup.CID(k%cids), dedup.CID((k+1)%cids)
		tail := nilNode
		for n := m.heads[from]; n != nilNode; n = m.next[n] {
			at[n], tail = to, n
		}
		if tail != nilNode {
			m.splice(from, to, tail)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("steady-state bind/trim/merge churn allocated %.1f objects/op, want 0", allocs)
	}
	for l, c := range at {
		if c == dedup.NilCID {
			t.Fatalf("lpn %d left unmapped", l)
		}
		for n := m.heads[c]; n != uint32(l); n = m.next[n] {
			if n == nilNode {
				t.Fatalf("lpn %d missing from CID %d's chain", l, c)
			}
		}
	}
}
