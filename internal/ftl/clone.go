package ftl

import (
	"unsafe"

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
func (f *FTL) CopyFrom(src *FTL, dev *flash.Device) int {
	f.dev = dev
	prev := f.opts.Policy
	f.opts = src.opts
	if cp, ok := src.opts.Policy.(ClonablePolicy); ok {
		// Stateful policies are part of the warm state. A recycled
		// runner's RandomPolicy is overwritten in place; when the runner
		// held another policy (it last served a snapshot with a
		// different one) the source's is cloned fresh.
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
	n += copyAll(&f.mapping, src.mapping)
	n += copyAll(&f.owners, src.owners)
	f.private = src.private
	n += f.rev.copyFrom(&src.rev)
	n += copyAll(&f.blocks, src.blocks)
	if len(f.freeByDie) != len(src.freeByDie) {
		f.freeByDie = make([][]flash.BlockID, len(src.freeByDie))
	}
	for i, l := range src.freeByDie {
		n += copyAll(&f.freeByDie[i], l)
	}
	f.freeCount = src.freeCount
	f.hotRR = src.hotRR
	f.cold = src.cold
	n += copyAll(&f.hot, src.hot)
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

// copyAll makes *dst equal src, reusing dst's backing array, and
// returns the bytes copied.
func copyAll[T any](dst *[]T, src []T) int {
	*dst = append((*dst)[:0], src...)
	return len(src) * int(unsafe.Sizeof(*new(T)))
}
