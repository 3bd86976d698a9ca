package ftl

import (
	"fmt"

	"cagc/internal/flash"
)

// Incremental GC-eligible set. Both GC surveys we track (Nagel et al.;
// Dayan & Bonnet) stress that victim selection must not cost O(device):
// instead of rescanning every block on each watermark trigger, the FTL
// keeps a bitmap of blocks that are closed with at least one invalid
// page, updated on the four transitions that can change eligibility:
//
//	close    (closeIfFull / frontier repair) — set if invalid > 0
//	invalidate (invalidatePage)              — set if the block is closed
//	erase    (pushFree)                      — clear
//	retire   (bad-block path in collect)     — clear
//
// A bitmap rather than a dense list keeps candidate enumeration in
// ascending block order — the same order the old full scan produced —
// which the seeded RandomPolicy and the policies' tie-breaks depend on
// for bit-identical simulation results.

// markEligible records block b as a GC victim candidate.
func (f *FTL) markEligible(b flash.BlockID) {
	f.gcEligible[b>>6] |= 1 << (uint(b) & 63)
}

// clearEligible removes block b from the victim set.
func (f *FTL) clearEligible(b flash.BlockID) {
	f.gcEligible[b>>6] &^= 1 << (uint(b) & 63)
}

// invalidatePage marks ppn invalid on the device and keeps the victim
// set current: an invalidation in a closed block makes it (or keeps it)
// eligible.
func (f *FTL) invalidatePage(ppn flash.PPN) error {
	if err := f.dev.Invalidate(ppn); err != nil {
		return err
	}
	b := f.dec.BlockOf(ppn)
	if f.blocks[b].state == blkClosed {
		f.markEligible(b)
	}
	return nil
}

// checkEligibleSet verifies the bitmap against the ground-truth
// predicate (closed with invalid pages); CheckInvariants calls it.
func (f *FTL) checkEligibleSet() error {
	for b := range f.blocks {
		blk, err := f.dev.Block(flash.BlockID(b))
		if err != nil {
			return err
		}
		want := f.blocks[b].state == blkClosed && blk.Invalid() > 0
		got := f.gcEligible[b>>6]&(1<<(uint(b)&63)) != 0
		if want != got {
			return fmt.Errorf("victim set: block %d eligible=%v, want %v (state=%d invalid=%d)",
				b, got, want, f.blocks[b].state, blk.Invalid())
		}
	}
	return nil
}
