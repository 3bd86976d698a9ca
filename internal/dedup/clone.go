package dedup

import (
	"unsafe"

	"cagc/internal/flathash"
)

// CopyFrom makes x equal src and returns the bytes copied: entries,
// fingerprint table, free-CID stack, and counters. The fingerprint
// table is open-addressed with its recency list stored as slot indices
// inside the slots, so the copy is a handful of flat copies into x's
// existing arrays — no per-element rebuild — and x evicts the same
// fingerprints at the same moments a cold index in this state would.
func (x *Index) CopyFrom(src *Index) int {
	if x.byFP == nil {
		x.byFP = new(flathash.Map[CID])
	}
	n := x.byFP.CopyFrom(src.byFP)
	x.entries = append(x.entries[:0], src.entries...)
	x.freeIDs = append(x.freeIDs[:0], src.freeIDs...)
	n += len(src.entries)*int(unsafe.Sizeof(entry{})) + len(src.freeIDs)*int(unsafe.Sizeof(CID(0)))
	x.live = src.live
	x.stats = src.stats
	x.capacity = src.capacity
	x.lruOn = src.lruOn
	return n
}
