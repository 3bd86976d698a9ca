package ftl

import (
	"slices"

	"cagc/internal/cow"
	"cagc/internal/flash"
)

// Clone returns a deep, independent copy of the FTL bound to dev, which
// must be a clone of the original's device (the two are snapshotted
// together — see sim.Runner.Clone). Every piece of mutable state is
// duplicated: mapping tables, the dedup index, block metadata, free
// lists, write frontiers, the GC-eligible bitmap, the cached mapping
// table, and the victim policy when it carries state (ClonablePolicy).
// The victim scratch buffer is deliberately not copied; it is rebuilt
// on the next GC invocation and never holds live data across calls.
//
// The contract is bit-identity: feeding the clone and the original the
// same operation stream produces identical results and identical
// internal state, which is what lets warm-state snapshots stand in for
// cold preconditioning runs.
func (f *FTL) Clone(dev *flash.Device) *FTL {
	c := &FTL{
		dev:          dev,
		opts:         f.opts,
		geo:          f.geo,
		dec:          f.dec,
		dies:         f.dies,
		gcFreeOK:     f.gcFreeOK,
		idx:          f.idx.Clone(),
		mapping:      slices.Clone(f.mapping),
		owners:       slices.Clone(f.owners),
		rev:          f.rev.clone(),
		blocks:       slices.Clone(f.blocks),
		freeByDie:    make([][]flash.BlockID, len(f.freeByDie)),
		freeCount:    f.freeCount,
		hotRR:        f.hotRR,
		coldOpen:     f.coldOpen,
		hasCold:      f.hasCold,
		hotOpen:      slices.Clone(f.hotOpen),
		hasHot:       slices.Clone(f.hasHot),
		gcEligible:   slices.Clone(f.gcEligible),
		inGC:         f.inGC,
		gcBusyUntil:  f.gcBusyUntil,
		gcHashEnd:    f.gcHashEnd,
		stats:        f.stats,
		tr:           f.tr,
		RefDist:      f.RefDist,
		logicalPages: f.logicalPages,
	}
	for i, l := range f.freeByDie {
		c.freeByDie[i] = slices.Clone(l)
	}
	if cp, ok := f.opts.Policy.(ClonablePolicy); ok {
		c.opts.Policy = cp.ClonePolicy()
	}
	if f.cmt != nil {
		c.cmt = f.cmt.clone()
	}
	return c
}

// clone duplicates the cached mapping table. The recency order and
// dirty flags live inside the flat page table, so the copy is a single
// slot-array copy that evicts the same translation pages the original
// would.
func (c *cmt) clone() *cmt {
	n := *c
	n.pages = c.pages.Clone()
	return &n
}

// copyFrom overwrites c with src's state, reusing c's page table.
func (c *cmt) copyFrom(src *cmt) {
	pages := c.pages
	*c = *src
	c.pages = pages
	c.pages.CopyFrom(src.pages)
}

// copyDirty overwrites c with src's state through the page table's
// dirty-chunk path, returning the bytes copied.
func (c *cmt) copyDirty(src *cmt) int {
	pages := c.pages
	*c = *src
	c.pages = pages
	return c.pages.CopyDirty(src.pages)
}

// CopyFrom makes f an exact copy of src bound to dev, reusing f's
// existing allocations — the recycled-clone path of the warm-state
// free-list. f must have been built (or previously cloned) from the
// same configuration as src, so every table has the right shape and
// the copy degenerates to flat memmoves; shape mismatches fall back to
// fresh allocation, preserving correctness. Observable behavior is
// identical to Clone: the same bit-identity contract applies.
func (f *FTL) CopyFrom(src *FTL, dev *flash.Device) {
	f.dev = dev
	prevPolicy := f.opts.Policy
	f.opts = src.opts
	if cp, ok := src.opts.Policy.(ClonablePolicy); ok {
		// Stateful policies are part of the warm state: reuse the
		// recycled runner's instance in place when the concrete types
		// match (the common case — one policy kind per snapshot),
		// otherwise clone fresh.
		if sp, ok := src.opts.Policy.(*RandomPolicy); ok {
			if dp, ok := prevPolicy.(*RandomPolicy); ok {
				*dp = *sp
				f.opts.Policy = dp
			} else {
				f.opts.Policy = sp.ClonePolicy()
			}
		} else {
			f.opts.Policy = cp.ClonePolicy()
		}
	}
	f.geo = src.geo
	f.dec = src.dec
	f.dies = src.dies
	f.gcFreeOK = src.gcFreeOK
	if f.idx == nil {
		f.idx = src.idx.Clone()
	} else {
		f.idx.CopyFrom(src.idx)
	}
	f.mapping = append(f.mapping[:0], src.mapping...)
	f.owners = append(f.owners[:0], src.owners...)
	f.rev.copyFrom(&src.rev)
	f.blocks = append(f.blocks[:0], src.blocks...)
	if len(f.freeByDie) != len(src.freeByDie) {
		f.freeByDie = make([][]flash.BlockID, len(src.freeByDie))
	}
	for i, l := range src.freeByDie {
		f.freeByDie[i] = append(f.freeByDie[i][:0], l...)
	}
	f.freeCount = src.freeCount
	f.hotRR = src.hotRR
	f.coldOpen = src.coldOpen
	f.hasCold = src.hasCold
	f.hotOpen = append(f.hotOpen[:0], src.hotOpen...)
	f.hasHot = append(f.hasHot[:0], src.hasHot...)
	f.gcEligible = append(f.gcEligible[:0], src.gcEligible...)
	// candScratch is rebuilt on every GC invocation and carries no live
	// data across calls; keep the recycled buffer, exactly as Clone
	// starts with none.
	f.inGC = src.inGC
	f.gcBusyUntil = src.gcBusyUntil
	f.gcHashEnd = src.gcHashEnd
	switch {
	case src.cmt == nil:
		f.cmt = nil
	case f.cmt == nil:
		f.cmt = src.cmt.clone()
	default:
		f.cmt.copyFrom(src.cmt)
	}
	f.stats = src.stats
	f.tr = src.tr
	f.RefDist = src.RefDist
	f.logicalPages = src.logicalPages
	f.cowMap.Reset() // f equals src everywhere again
	f.cowOwn.Reset()
}

// EnableCOW turns on divergence tracking on the mapping and owners
// tables and cascades into the dedup index, the reverse map, and the
// cached mapping table, so CopyDirty can re-seed this FTL from its
// snapshot master by copying only what a run touched. The bound device
// has its own EnableCOW; sim.Runner enables both together. Idempotent;
// Clone never inherits tracking.
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

// MarkAllCOW forces the next CopyDirty onto the full-copy path
// everywhere — the differential reference for the dirty-vs-full fuzz
// tests and the denominator of the re-seed byte-ratio guard.
func (f *FTL) MarkAllCOW() {
	f.cowMap.MarkAll()
	f.cowOwn.MarkAll()
	f.rev.markAllCOW()
	f.idx.MarkAllCOW()
	if f.cmt != nil {
		f.cmt.pages.MarkAllCOW()
	}
}

// CopyDirty re-seeds f from src bound to dev, copying only the chunks
// f dirtied since it last equaled src, and returns the bytes copied.
// The big tables (mapping, owners, dedup entries, fingerprint slots,
// reverse-map tables, cmt page table) go through their dirty-chunk fast
// paths; everything else — block metadata, free lists, frontiers, the
// GC bitmap, scalars, the victim policy — is small and always copied,
// exactly as CopyFrom does. Untracked state degrades to full copies,
// so the result is always indistinguishable from CopyFrom.
func (f *FTL) CopyDirty(src *FTL, dev *flash.Device) int {
	f.dev = dev
	prevPolicy := f.opts.Policy
	f.opts = src.opts
	if cp, ok := src.opts.Policy.(ClonablePolicy); ok {
		if sp, ok := src.opts.Policy.(*RandomPolicy); ok {
			if dp, ok := prevPolicy.(*RandomPolicy); ok {
				*dp = *sp
				f.opts.Policy = dp
			} else {
				f.opts.Policy = sp.ClonePolicy()
			}
		} else {
			f.opts.Policy = cp.ClonePolicy()
		}
	}
	f.geo = src.geo
	f.dec = src.dec
	f.dies = src.dies
	f.gcFreeOK = src.gcFreeOK
	var n int
	if f.idx == nil {
		f.idx = src.idx.Clone()
	} else {
		n += f.idx.CopyDirty(src.idx)
	}
	n += cow.CopySlice(f.cowMap, &f.mapping, src.mapping)
	f.cowMap.Reset()
	n += cow.CopySlice(f.cowOwn, &f.owners, src.owners)
	f.cowOwn.Reset()
	n += f.rev.copyDirty(&src.rev)
	n += cow.CopyAll(&f.blocks, src.blocks)
	if len(f.freeByDie) != len(src.freeByDie) {
		f.freeByDie = make([][]flash.BlockID, len(src.freeByDie))
	}
	for i, l := range src.freeByDie {
		n += cow.CopyAll(&f.freeByDie[i], l)
	}
	f.freeCount = src.freeCount
	f.hotRR = src.hotRR
	f.coldOpen = src.coldOpen
	f.hasCold = src.hasCold
	n += cow.CopyAll(&f.hotOpen, src.hotOpen)
	n += cow.CopyAll(&f.hasHot, src.hasHot)
	n += cow.CopyAll(&f.gcEligible, src.gcEligible)
	// candScratch: rebuilt on every GC invocation, kept as-is (like
	// CopyFrom).
	f.inGC = src.inGC
	f.gcBusyUntil = src.gcBusyUntil
	f.gcHashEnd = src.gcHashEnd
	switch {
	case src.cmt == nil:
		f.cmt = nil
	case f.cmt == nil:
		f.cmt = src.cmt.clone()
	default:
		n += f.cmt.copyDirty(src.cmt)
	}
	f.stats = src.stats
	f.tr = src.tr
	f.RefDist = src.RefDist
	f.logicalPages = src.logicalPages
	return n
}
