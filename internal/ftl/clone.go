package ftl

import (
	"cagc/internal/cow"
	"cagc/internal/dedup"
	"cagc/internal/flash"
	"cagc/internal/flathash"
)

// CopyFrom makes f equal src, bound to dev — which must already equal
// src's device; the two are copied together (see sim.Runner) — and
// returns the bytes copied. It is the only state copy the FTL has:
// cloning is CopyFrom into a zero FTL, re-seeding a recycled runner is
// CopyFrom into one that already holds the tables, reusing every
// backing array.
//
// The contract is bit-identity: feeding f and src the same operation
// stream afterwards produces identical results and identical internal
// state, which is what lets warm-state snapshots stand in for cold
// preconditioning runs.
//
// The big tables (mapping, owners, dedup entries, fingerprint slots,
// reverse-map tables, cmt page table) copy only the chunks f dirtied
// since it last equaled src when f is tracked (EnableCOW), and whole
// when it is not. Everything else — block metadata, free lists,
// frontiers, the victim index, scalars, the victim policy — is small
// and always copied.
func (f *FTL) CopyFrom(src *FTL, dev *flash.Device) int {
	f.dev = dev
	prev := f.opts.Policy
	f.opts = src.opts
	if cp, ok := src.opts.Policy.(ClonablePolicy); ok {
		// Stateful policies are part of the warm state. A recycled
		// runner's RandomPolicy is overwritten in place (one policy
		// kind per snapshot, so the types match); anything else is
		// cloned fresh.
		sp, _ := src.opts.Policy.(*RandomPolicy)
		if dp, ok := prev.(*RandomPolicy); ok && sp != nil {
			*dp = *sp
			f.opts.Policy = dp
		} else {
			f.opts.Policy = cp.ClonePolicy()
		}
	}
	f.geo = src.geo
	f.dec = src.dec
	f.dies = src.dies
	f.gcFreeOK = src.gcFreeOK
	if f.idx == nil {
		f.idx = new(dedup.Index)
	}
	n := f.idx.CopyFrom(src.idx)
	n += cow.CopySlice(f.cowMap, &f.mapping, src.mapping)
	f.cowMap.Reset()
	n += cow.CopySlice(f.cowOwn, &f.owners, src.owners)
	f.cowOwn.Reset()
	f.private = src.private
	n += f.rev.copyFrom(&src.rev)
	n += cow.CopyAll(&f.blocks, src.blocks)
	if len(f.freeByDie) != len(src.freeByDie) {
		f.freeByDie = make([][]flash.BlockID, len(src.freeByDie))
	}
	for i, l := range src.freeByDie {
		n += cow.CopyAll(&f.freeByDie[i], l)
	}
	f.freeCount = src.freeCount
	f.hotRR = src.hotRR
	f.cold = src.cold
	n += cow.CopyAll(&f.hot, src.hot)
	n += f.vix.copyFrom(&src.vix)
	f.inGC = src.inGC
	f.gcBusyUntil = src.gcBusyUntil
	f.gcHashEnd = src.gcHashEnd
	if src.cmt == nil {
		f.cmt = nil
	} else {
		if f.cmt == nil {
			f.cmt = &cmt{pages: new(flathash.Map[bool])}
		}
		n += f.cmt.copyFrom(src.cmt)
	}
	f.stats = src.stats
	f.tr = src.tr
	f.RefDist = src.RefDist
	f.logicalPages = src.logicalPages
	return n
}

// copyFrom makes c equal src, reusing c's page table, and returns the
// bytes copied. The recency order and dirty flags live inside the flat
// page table, so c evicts the same translation pages src would.
func (c *cmt) copyFrom(src *cmt) int {
	pages := c.pages
	*c = *src
	c.pages = pages
	return c.pages.CopyFrom(src.pages)
}

// EnableCOW turns on divergence tracking on the mapping and owners
// tables and cascades into the dedup index, the reverse map, and the
// cached mapping table, so CopyFrom can re-seed this FTL from its
// snapshot master by copying only what a run touched. The bound device
// has its own EnableCOW; sim.Runner enables both together. Idempotent;
// a copy never inherits tracking.
func (f *FTL) EnableCOW() {
	if f.cowMap == nil {
		f.cowMap = cow.NewTracker(mapChunkShift)
		f.cowOwn = cow.NewTracker(mapChunkShift)
	}
	f.rev.enableCOW()
	f.idx.EnableCOW()
	if f.cmt != nil {
		f.cmt.pages.Track()
	}
}
