package dedup

import (
	"cagc/internal/cow"
	"cagc/internal/flathash"
)

// CopyFrom makes x equal src and returns the bytes copied: entries,
// fingerprint table, free-CID stack, and counters. The fingerprint
// table is open-addressed with its recency list stored as slot indices
// inside the slots, so the copy is a handful of flat copy() calls — no
// per-element rebuild — and x evicts the same fingerprints at the same
// moments a cold index in this state would. Entries and fingerprint
// slots go chunk by dirty chunk when x is tracked and whole when it is
// not (a zero Index being cloned into, a runner's first re-seed); the
// free-CID stack (pop/push churn, not prefix-clean) and the scalars are
// always copied. x keeps its backing arrays and its own trackers.
func (x *Index) CopyFrom(src *Index) int {
	if x.byFP == nil {
		x.byFP = new(flathash.Map[CID])
	}
	n := x.byFP.CopyFrom(src.byFP)
	n += cow.CopySlice(x.track, &x.entries, src.entries)
	x.track.Reset()
	n += cow.CopyAll(&x.freeIDs, src.freeIDs)
	x.live = src.live
	x.stats = src.stats
	x.capacity = src.capacity
	x.lruOn = src.lruOn
	return n
}

// EnableCOW turns on divergence tracking on the entry array and the
// fingerprint table so CopyFrom can re-seed this index from its
// snapshot master by copying only the chunks a run touched. Idempotent;
// a copy never inherits tracking.
func (x *Index) EnableCOW() {
	if x.track == nil {
		x.track = cow.NewTracker(entryChunkShift)
	}
	x.byFP.Track()
}
