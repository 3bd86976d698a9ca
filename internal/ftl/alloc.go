package ftl

import (
	"fmt"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
)

// Page allocation. The hot region keeps one open block per die and
// stripes consecutive allocations round-robin across dies (channel
// striping, as FlashSim does), so multi-page requests and GC copies
// exploit die-level parallelism. The cold region keeps a single open
// block: cold writes are rare, GC-driven, and benefit from being packed
// together.

// popFree removes a free block, preferring die pref; any die works if
// pref is exhausted. Returns ok=false when the device has no free
// blocks at all.
func (f *FTL) popFree(pref flash.DieID) (flash.BlockID, bool) {
	dies := len(f.freeByDie)
	for i := 0; i < dies; i++ {
		d := int(pref) + i
		if d >= dies {
			d -= dies
		}
		if n := len(f.freeByDie[d]); n > 0 {
			b := f.freeByDie[d][n-1]
			f.freeByDie[d] = f.freeByDie[d][:n-1]
			f.freeCount--
			return b, true
		}
	}
	return 0, false
}

// pushFree returns an erased block to its die's free list.
func (f *FTL) pushFree(b flash.BlockID) {
	die := f.dec.DieOfBlock(b)
	f.freeByDie[die] = append(f.freeByDie[die], b)
	f.freeCount++
	f.blocks[b].state = blkFree
}

// openFrontier opens a free block, preferably from die pref, in slot
// fr; false when the device has no free block.
func (f *FTL) openFrontier(fr *frontier, pref flash.DieID, region Region) bool {
	b, ok := f.popFree(pref)
	if !ok {
		return false
	}
	*fr = frontier{block: b, open: true}
	f.blocks[b] = blockMeta{state: blkOpen, region: region}
	return true
}

// pickFrontier returns the frontier slot the next page of region goes
// to, opening a block in it if it has none.
func (f *FTL) pickFrontier(region Region) (*frontier, error) {
	if region == Cold && f.opts.HotCold {
		if !f.cold.open && !f.openFrontier(&f.cold, flash.DieID(f.hotRR), Cold) {
			return nil, ErrDeviceFull
		}
		return &f.cold, nil
	}
	// Hot region: round-robin across per-die open blocks. hotRR stays
	// in [0, dies), so the cursor wraps by compare, not by modulo.
	dies := f.dies
	for i := 0; i < dies; i++ {
		d := f.hotRR + i
		if d >= dies {
			d -= dies
		}
		fr := &f.hot[d]
		if !fr.open && !f.openFrontier(fr, flash.DieID(d), Hot) {
			continue
		}
		f.hotRR = d + 1
		if f.hotRR == dies {
			f.hotRR = 0
		}
		return fr, nil
	}
	return nil, ErrDeviceFull
}

// program writes content fp to the next page of region's frontier,
// data available at dataReady, and returns the page and the program's
// completion time. The block is closed, indexed for GC and dropped from
// its slot the moment its last page is programmed. The slot is the one
// the page was allocated from, not the one the block's die would name:
// popFree lends a die a block from another die when its own free list
// is empty.
func (f *FTL) program(region Region, at, dataReady event.Time, fp dedup.Fingerprint) (flash.PPN, event.Time, error) {
	fr, err := f.pickFrontier(region)
	if err != nil {
		return flash.InvalidPPN, 0, err
	}
	ppn, end, full, err := f.dev.ProgramNext(at, dataReady, fr.block, uint64(fp))
	if err != nil {
		return flash.InvalidPPN, 0, err
	}
	if full {
		blk, err := f.dev.Block(fr.block)
		if err != nil {
			return flash.InvalidPPN, 0, err
		}
		fr.open = false
		f.blocks[fr.block].state = blkClosed
		f.indexClosed(fr.block, blk)
	}
	return ppn, end, nil
}

// regionFor chooses a page's region from its reference count.
func (f *FTL) regionFor(ref int) Region {
	if f.opts.HotCold && ref > f.opts.RefThreshold {
		return Cold
	}
	return Hot
}

// RegionStats summarizes hot/cold occupancy — evidence that the
// reference-count placement actually separates the regions.
type RegionStats struct {
	HotBlocks  int // non-free blocks tagged hot
	ColdBlocks int
	HotValid   int // valid pages in each region
	ColdValid  int
}

// ColdShare returns cold valid pages / all valid pages (0 when empty).
func (r RegionStats) ColdShare() float64 {
	total := r.HotValid + r.ColdValid
	if total == 0 {
		return 0
	}
	return float64(r.ColdValid) / float64(total)
}

// RegionStats scans the block metadata (O(blocks)).
func (f *FTL) RegionStats() RegionStats {
	var rs RegionStats
	for b := range f.blocks {
		if f.blocks[b].state == blkFree {
			continue
		}
		blk, err := f.dev.Block(flash.BlockID(b))
		if err != nil {
			continue
		}
		if f.blocks[b].region == Cold {
			rs.ColdBlocks++
			rs.ColdValid += blk.Valid()
		} else {
			rs.HotBlocks++
			rs.HotValid += blk.Valid()
		}
	}
	return rs
}

// CheckInvariants walks every structure and cross-checks them; tests
// call it after workloads. It is O(pages) and not used on hot paths.
func (f *FTL) CheckInvariants() error {
	g := f.dev.Geometry()
	// The walk reads the device's flat page arrays directly; every PPN
	// taken from a table is range-checked before it indexes them.
	states, tags := f.dev.Pages()
	owners := f.owners[:len(states)]
	// Every mapped LPN points at a valid page it owns: directly for a
	// private page, through a live CID whose stored tag matches the
	// fingerprint otherwise.
	private := 0
	for lpn, s := range f.mapping {
		if s == nilSlot {
			continue
		}
		if s.private() {
			ppn := s.page()
			if ppn >= uint64(len(states)) {
				return fmt.Errorf("lpn %d -> private ppn %d beyond the device's %d pages", lpn, ppn, len(states))
			}
			if states[ppn] != flash.PageValid {
				return fmt.Errorf("lpn %d -> private ppn %d in state %v", lpn, ppn, states[ppn])
			}
			if owners[ppn] != privateSlot(uint64(lpn)) {
				return fmt.Errorf("lpn %d -> private ppn %d owned by %v", lpn, ppn, owners[ppn])
			}
			private++
			continue
		}
		c := s.cid()
		ppn, err := f.idx.PPN(c)
		if err != nil {
			return fmt.Errorf("lpn %d -> dead CID %d: %w", lpn, c, err)
		}
		if uint64(ppn) >= uint64(len(states)) {
			return fmt.Errorf("lpn %d -> CID %d -> ppn %d beyond the device's %d pages", lpn, c, ppn, len(states))
		}
		if states[ppn] != flash.PageValid {
			return fmt.Errorf("lpn %d -> CID %d -> ppn %d in state %v", lpn, c, ppn, states[ppn])
		}
		if owners[ppn] != s {
			return fmt.Errorf("ppn %d owner %v != CID %d", ppn, owners[ppn], c)
		}
		if fp, _ := f.idx.FP(c); tags[ppn] != uint64(fp) {
			return fmt.Errorf("ppn %d tag %#x != fp %#x", ppn, tags[ppn], uint64(fp))
		}
	}
	if private != f.private {
		return fmt.Errorf("%d private pages mapped, %d counted", private, f.private)
	}
	// Every valid page has an owner that maps back to it, every
	// free/invalid page has none.
	validOwned := 0
	for p, st := range states {
		owner := owners[p]
		switch {
		case st != flash.PageValid:
			if owner != nilSlot {
				return fmt.Errorf("%v ppn %d has owner %v", st, p, owner)
			}
			continue
		case owner == nilSlot:
			return fmt.Errorf("valid ppn %d has no owner", p)
		case owner.private():
			if lpn := owner.page(); lpn >= f.logicalPages || f.mapping[lpn] != privateSlot(uint64(p)) {
				return fmt.Errorf("valid ppn %d: private owner lpn %d does not map to it", p, lpn)
			}
		default:
			if ppn, err := f.idx.PPN(owner.cid()); err != nil || ppn != flash.PPN(p) {
				return fmt.Errorf("valid ppn %d owner %v maps to %d (%v)", p, owner, ppn, err)
			}
		}
		validOwned++
	}
	// Valid pages == live contents.
	if validOwned != f.LiveContents() {
		return fmt.Errorf("%d valid pages but %d live contents", validOwned, f.LiveContents())
	}
	if f.opts.HashAt.atMigrate() {
		if err := f.checkReverseMap(); err != nil {
			return err
		}
	}
	// Free accounting matches the block states, and the open blocks are
	// exactly the ones the frontier slots hold.
	freeBlocks, openBlocks := 0, 0
	for b := range f.blocks {
		blk, _ := f.dev.Block(flash.BlockID(b))
		switch f.blocks[b].state {
		case blkFree:
			freeBlocks++
			if blk.Free() != g.PagesPerBlock {
				return fmt.Errorf("free block %d has programmed pages", b)
			}
		case blkOpen:
			openBlocks++
		case blkClosed:
			if !blk.Full() {
				return fmt.Errorf("closed block %d not full", b)
			}
		case blkVictim:
			return fmt.Errorf("block %d left marked as the GC victim", b)
		}
	}
	slots := 0
	for i := -1; i < len(f.hot); i++ { // slot -1 is the cold frontier
		fr := f.cold
		if i >= 0 {
			fr = f.hot[i]
		}
		if !fr.open {
			continue
		}
		slots++
		// Distinct slots holding distinct open blocks, as many as there
		// are open blocks: every open block is held exactly once.
		if blk, _ := f.dev.Block(fr.block); f.blocks[fr.block].state != blkOpen || blk.Full() {
			return fmt.Errorf("frontier slot %d holds block %d (state=%d, full=%v)",
				i, fr.block, f.blocks[fr.block].state, blk.Full())
		}
		for j := i + 1; j < len(f.hot); j++ {
			if f.hot[j].open && f.hot[j].block == fr.block {
				return fmt.Errorf("frontier slots %d and %d both hold block %d", i, j, fr.block)
			}
		}
	}
	if slots != openBlocks {
		return fmt.Errorf("%d open blocks but %d frontier slots in use", openBlocks, slots)
	}
	if freeBlocks != f.freeCount {
		return fmt.Errorf("freeCount %d != counted %d", f.freeCount, freeBlocks)
	}
	perDie := 0
	for _, l := range f.freeByDie {
		perDie += len(l)
	}
	if perDie != f.freeCount {
		return fmt.Errorf("free lists hold %d, freeCount %d", perDie, f.freeCount)
	}
	// The victim index must agree with a fresh scan.
	return f.checkEligibleSet()
}

// checkReverseMap verifies that the reverse map is exact: every chain
// holds only LPNs mapped to its CID, prev mirrors next (which also
// rules out cycles: a revisited node would be entered from a second
// predecessor), its length is the index's reference count — the one
// cross-check between the mapping and the index — every live CID has a
// chain, and together the chains hold every LPN mapped to a CID (and
// no private one).
func (f *FTL) checkReverseMap() error {
	chains, linked := 0, 0
	for c, head := range f.rev.heads {
		if head == nilNode {
			continue
		}
		n := 0
		for p, l := nilNode, head; l != nilNode; p, l = l, f.rev.next[l] {
			if f.mapping[l] != cidSlot(dedup.CID(c)) {
				return fmt.Errorf("reverse map: lpn %d on CID %d's chain maps to %v", l, c, f.mapping[l])
			}
			if f.rev.prev[l] != p {
				return fmt.Errorf("reverse map: lpn %d prev %d, reached from %d", l, f.rev.prev[l], p)
			}
			n++
		}
		ref, err := f.idx.Ref(dedup.CID(c))
		if err != nil {
			return fmt.Errorf("reverse map: chain of %d LPNs: %w", n, err)
		}
		if n != ref {
			return fmt.Errorf("reverse map: CID %d chain holds %d LPNs, refcount %d", c, n, ref)
		}
		chains++
		linked += n
	}
	if chains != f.idx.Live() {
		return fmt.Errorf("reverse map: %d chains for %d live contents", chains, f.idx.Live())
	}
	shared := 0
	for _, s := range f.mapping {
		if s.chain() != dedup.NilCID {
			shared++
		}
	}
	if linked != shared {
		return fmt.Errorf("reverse map: chains hold %d LPNs, %d are mapped to CIDs", linked, shared)
	}
	return nil
}
