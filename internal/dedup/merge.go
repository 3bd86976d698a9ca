package dedup

import (
	"fmt"
)

// The operations in this file support CAGC's offline (GC-time)
// deduplication. Under CAGC, user writes are *not* fingerprint-checked
// and never reach the index: the FTL keeps each one as a private page
// until GC hashes it. GC then either adopts the page into the indexed
// copy of its content (AdoptPrivate) or Inserts it as new content.
// Entries the capacity bound evicted are the one kind of unindexed
// entry left; when GC meets one it re-hashes it and either publishes it
// back (Publish) or merges it into a copy indexed since (MergeInto).

// AdoptPrivate adds one reference to the indexed content c on behalf of
// a private page GC found to hold the same content (the FTL drops the
// page and links its logical page to c) and returns c's new count.
func (x *Index) AdoptPrivate(c CID) (int, error) {
	ref, err := x.IncRef(c)
	if err != nil {
		return 0, err
	}
	x.touch(c)
	return ref, nil
}

// Indexed reports whether c is in the fingerprint index (false once the
// capacity bound evicted its fingerprint, until it is published again).
func (x *Index) Indexed(c CID) (bool, error) {
	if err := x.check(c); err != nil {
		return false, err
	}
	return !x.entries[c].unindexed, nil
}

// Publish enters an evicted entry back into the fingerprint index after
// its content has been hashed again. The caller must have verified via
// Lookup that the fingerprint is not already present; publishing a
// duplicate (the table insert fails) or already-indexed entry is a bug.
func (x *Index) Publish(c CID) error {
	if err := x.check(c); err != nil {
		return err
	}
	e := &x.entries[c]
	if !e.unindexed {
		return fmt.Errorf("dedup: Publish of already-indexed CID %d", c)
	}
	s, ok := x.byFP.Put(uint64(e.fp), c)
	if !ok {
		return fmt.Errorf("dedup: Publish of duplicate fingerprint %#x (merge instead)", uint64(e.fp))
	}
	e.unindexed = false
	x.trackIndexed(s)
	return nil
}

// MergeInto folds the redundant content from into the indexed content
// to: to gains all of from's references and from is removed. The caller
// is responsible for remapping logical pages and invalidating from's
// physical page. Returns to's new reference count.
func (x *Index) MergeInto(from, to CID) (int, error) {
	if from == to {
		return 0, fmt.Errorf("dedup: merging CID %d into itself", from)
	}
	if err := x.check(from); err != nil {
		return 0, err
	}
	if err := x.check(to); err != nil {
		return 0, err
	}
	ef, et := &x.entries[from], &x.entries[to]
	if ef.fp != et.fp {
		return 0, fmt.Errorf("dedup: merging different contents (%#x into %#x)",
			uint64(ef.fp), uint64(et.fp))
	}
	if et.unindexed {
		return 0, fmt.Errorf("dedup: merge target CID %d is not indexed", to)
	}
	et.ref += ef.ref
	if et.ref > et.peak {
		et.peak = et.ref
	}
	x.touch(to)
	// Remove from. It is an evicted (unindexed) entry; if it was indexed
	// this is a caller bug because two indexed entries can never share a
	// fingerprint.
	if !ef.unindexed {
		return 0, fmt.Errorf("dedup: merge source CID %d is indexed", from)
	}
	ef.ref = 0
	x.freeIDs = append(x.freeIDs, from)
	x.live--
	x.stats.Removals++
	return int(et.ref), nil
}
