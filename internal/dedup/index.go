package dedup

import (
	"errors"
	"fmt"

	"cagc/internal/flash"
	"cagc/internal/flathash"
)

// CID identifies one unit of unique stored content (CAFTL's "virtual
// page"). Logical pages map to CIDs; each CID maps to the one physical
// page holding the content plus its reference count.
type CID uint32

// NilCID is the "no content" sentinel.
const NilCID = CID(^uint32(0))

// Errors returned by Index operations.
var (
	ErrBadCID   = errors.New("dedup: CID out of range or dead")
	ErrDangling = errors.New("dedup: decrement of zero refcount")
)

type entry struct {
	fp        Fingerprint
	ppn       flash.PPN
	ref       int32
	peak      int32 // maximum refcount ever reached; feeds the Figure-6 analysis
	unindexed bool  // fingerprint evicted by the capacity bound (until republished)
}

// Stats counts index activity. Contents the FTL keeps outside the index
// (private pages, see ftl) appear in none of these.
type Stats struct {
	Lookups   uint64 // fingerprint queries
	Hits      uint64 // queries that found existing content
	Inserts   uint64 // new unique contents stored
	Removals  uint64 // contents whose last reference was dropped or merged away
	Evictions uint64 // fingerprints evicted by the capacity bound
	PeakCount int    // maximum number of live entries ever
}

// Index is the fingerprint index plus reference counts. It is the RAM
// metadata a dedup FTL keeps; all operations are O(1) hash-table work
// and cost no simulated device time (the *hash computation* producing
// the fingerprint is what costs time, and is modelled on the hash
// engine).
//
// The fingerprint table is an open-addressed flathash.Map rather than a
// Go map: every write under Inline-Dedupe and every GC migration under
// CAGC probes it, so it must not allocate in steady state, and the
// capacity bound's recency list is threaded intrusively through its
// slots (see internal/flathash) instead of a container/list plus a
// position map.
type Index struct {
	byFP    *flathash.Map[CID]
	entries []entry
	freeIDs []CID
	live    int
	stats   Stats

	// Optional fingerprint-cache bound (see SetCapacity). lruOn records
	// whether the recency list has ever been activated; it stays on
	// even if the capacity is later lifted, mirroring the lazily built
	// list of the original map-based implementation.
	capacity int
	lruOn    bool
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{byFP: flathash.New[CID](0)}
}

// Live returns the number of live CIDs: unique contents stored under
// the index, indexed or evicted.
func (x *Index) Live() int { return x.live }

// Stats returns a copy of the activity counters.
func (x *Index) Stats() Stats { return x.stats }

// check is on every accessor's path. Its error formats itself only when
// printed, so failing costs check no call and both it and the accessors
// around it (PPN, FP, SetPPN, Ref, Indexed) fit the inlining budget.
func (x *Index) check(c CID) error {
	if int(c) >= len(x.entries) || x.entries[c].ref <= 0 {
		return badCIDError(c)
	}
	return nil
}

// badCIDError is ErrBadCID naming the offending CID.
type badCIDError CID

func (e badCIDError) Error() string { return fmt.Sprintf("%v: %d", ErrBadCID, CID(e)) }
func (e badCIDError) Unwrap() error { return ErrBadCID }

// Lookup reports whether content with fingerprint fp is stored and, if
// so, under which CID.
func (x *Index) Lookup(fp Fingerprint) (CID, bool) {
	x.stats.Lookups++
	s, ok := x.byFP.Get(uint64(fp))
	if !ok {
		return 0, false
	}
	x.stats.Hits++
	c := *x.byFP.At(s)
	x.touchSlot(s)
	return c, true
}

// Insert stores new unique content located at ppn with refcount 1 and
// returns its CID. Inserting a fingerprint that is already present is a
// caller bug (callers must Lookup first) and returns an error; the
// table insert that fails is the check, so a good insert probes once.
func (x *Index) Insert(fp Fingerprint, ppn flash.PPN) (CID, error) {
	// The next CID is claimed only once the fingerprint is in.
	c := CID(len(x.entries))
	n := len(x.freeIDs)
	if n > 0 {
		c = x.freeIDs[n-1]
	}
	s, ok := x.byFP.Put(uint64(fp), c)
	if !ok {
		return NilCID, fmt.Errorf("dedup: insert of already-present fingerprint %#x", uint64(fp))
	}
	if n > 0 {
		x.freeIDs = x.freeIDs[:n-1]
	} else {
		x.entries = append(x.entries, entry{})
	}
	x.entries[c] = entry{fp: fp, ppn: ppn, ref: 1, peak: 1}
	x.live++
	x.stats.Inserts++
	if x.live > x.stats.PeakCount {
		x.stats.PeakCount = x.live
	}
	x.trackIndexed(s)
	return c, nil
}

// IncRef adds one reference to c (a duplicate write now shares it) and
// returns the new count.
func (x *Index) IncRef(c CID) (int, error) {
	if err := x.check(c); err != nil {
		return 0, err
	}
	e := &x.entries[c]
	e.ref++
	if e.ref > e.peak {
		e.peak = e.ref
	}
	return int(e.ref), nil
}

// DecRef drops one reference from c. When the count reaches zero the
// entry is removed from the index and the CID is recycled; the caller
// must then invalidate the physical page. It returns the new count and
// the page's peak refcount (for invalidation analysis).
func (x *Index) DecRef(c CID) (ref int, peak int, err error) {
	if err := x.check(c); err != nil {
		return 0, 0, err
	}
	e := &x.entries[c]
	e.ref--
	if e.ref == 0 {
		if !e.unindexed {
			// Delete unlinks the slot from the recency list too — the
			// untrack of the map-based implementation.
			x.byFP.Delete(uint64(e.fp))
		}
		x.freeIDs = append(x.freeIDs, c)
		x.live--
		x.stats.Removals++
		return 0, int(e.peak), nil
	}
	return int(e.ref), int(e.peak), nil
}

// Ref returns the current reference count of c.
func (x *Index) Ref(c CID) (int, error) {
	if err := x.check(c); err != nil {
		return 0, err
	}
	return int(x.entries[c].ref), nil
}

// PPN returns the physical location of c's content.
func (x *Index) PPN(c CID) (flash.PPN, error) {
	if err := x.check(c); err != nil {
		return flash.InvalidPPN, err
	}
	return x.entries[c].ppn, nil
}

// SetPPN relocates c's content (GC migration): one metadata update no
// matter how many logical pages reference the content.
func (x *Index) SetPPN(c CID, ppn flash.PPN) error {
	if err := x.check(c); err != nil {
		return err
	}
	x.entries[c].ppn = ppn
	return nil
}

// FP returns c's fingerprint.
func (x *Index) FP(c CID) (Fingerprint, error) {
	if err := x.check(c); err != nil {
		return Zero, err
	}
	return x.entries[c].fp, nil
}

// RefHistogram returns the live reference-count distribution bucketed
// as {1, 2, 3, >3} — the bucketing of Figure 6.
func (x *Index) RefHistogram() [4]int {
	var h [4]int
	for i := range x.entries {
		r := x.entries[i].ref
		switch {
		case r <= 0:
		case r == 1:
			h[0]++
		case r == 2:
			h[1]++
		case r == 3:
			h[2]++
		default:
			h[3]++
		}
	}
	return h
}

// DedupRatio returns hits/lookups — the fraction of checked writes that
// were duplicates.
func (x *Index) DedupRatio() float64 {
	if x.stats.Lookups == 0 {
		return 0
	}
	return float64(x.stats.Hits) / float64(x.stats.Lookups)
}
