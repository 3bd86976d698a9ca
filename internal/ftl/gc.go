package ftl

import (
	"errors"
	"fmt"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/obs"
)

// Garbage collection. Triggered when the free-block fraction drops
// below the watermark (Table I: 20%), it selects victims with the
// configured policy, migrates their valid pages, and erases them.
//
// With GCDedup (CAGC), each migrated page that has never been hashed is
// fingerprinted on the controller hash engine; redundant copies are
// dropped (one metadata merge instead of a program), unique copies are
// published into the fingerprint index, and pages are placed into the
// hot or cold region by reference count. With OverlapHash the hash
// engine runs in parallel with the die timelines, hiding fingerprint
// latency under page copies and block erases (the paper's
// parallelization); without it every page is processed strictly
// serially (read, hash, program, next page) — the ablation.

// maxGCBatch bounds how many victims one GC invocation reclaims. GC is
// incremental: if the pool is still below the watermark afterwards, the
// next write triggers another batch. Unbounded reclaim would compact
// the whole device in one storm, serializing user I/O behind it.
const maxGCBatch = 2

// gcFreeThreshold returns the smallest free-block count satisfying the
// watermark: the integer form of float64(free)/total >= watermark,
// nudged across the float boundary so both tests agree on every count.
func gcFreeThreshold(total int, watermark float64) int {
	t := float64(total)
	ok := int(watermark * t)
	for ok > 0 && float64(ok-1)/t >= watermark {
		ok--
	}
	for ok <= total && float64(ok)/t < watermark {
		ok++
	}
	return ok
}

// maybeGC runs one bounded garbage-collection batch if the free pool is
// below the watermark.
func (f *FTL) maybeGC(now event.Time) error {
	if f.inGC {
		return nil
	}
	if f.freeCount >= f.gcFreeOK {
		return nil
	}
	f.inGC = true
	defer func() { f.inGC = false }()
	f.stats.GCInvocations++

	for i := 0; i < maxGCBatch && f.freeCount < f.gcFreeOK; i++ {
		victim, ok := f.selectVictim(now)
		if !ok {
			f.stats.FutileGC++
			return nil
		}
		if err := f.collect(now, victim); err != nil {
			return fmt.Errorf("ftl: gc of block %d: %w", victim, err)
		}
	}
	return f.maybeWearLevel(now)
}

// IdleGC reclaims blocks during a host idle window, the way firmware
// uses quiet periods so that the foreground watermark GC rarely binds.
// It keeps collecting until the free pool reaches target (a fraction of
// all blocks), the window [now, deadline] is used up, or no reclaimable
// block remains. All operations are scheduled like normal GC; the
// deadline check uses the GC horizon so the last collection may overrun
// slightly, as it would on hardware once an erase has been issued.
func (f *FTL) IdleGC(now, deadline event.Time, target float64) error {
	if f.inGC || now >= deadline {
		return nil
	}
	f.inGC = true
	defer func() { f.inGC = false }()
	total := float64(len(f.blocks))
	wins := uint64(0)
	for float64(f.freeCount)/total < target {
		if f.gcBusyUntil > deadline {
			break
		}
		victim, ok := f.selectVictim(now)
		if !ok {
			break
		}
		if err := f.collect(now, victim); err != nil {
			return fmt.Errorf("ftl: idle gc of block %d: %w", victim, err)
		}
		f.stats.IdleGCCollects++
		wins++
	}
	if wins > 0 {
		f.stats.IdleGCWindows++
		f.tr.Instant(obs.TrackGC, obs.KIdleGC, now, wins)
	}
	return f.maybeWearLevel(now)
}

// ForceGC reclaims every victim-eligible block once, regardless of the
// watermark. It exists for worked examples and idle-time GC studies;
// the normal trigger is maybeGC.
func (f *FTL) ForceGC(now event.Time) error {
	if f.inGC {
		return nil
	}
	f.inGC = true
	defer func() { f.inGC = false }()
	f.stats.GCInvocations++
	for {
		victim, ok := f.selectVictim(now)
		if !ok {
			return nil
		}
		if err := f.collect(now, victim); err != nil {
			return fmt.Errorf("ftl: forced gc of block %d: %w", victim, err)
		}
	}
}

// CollectAll migrates and erases every closed block, even all-valid
// ones — a consolidation pass (the GC step of the paper's Figure-8
// worked example, where GC runs over freshly written blocks). Blocks
// written during the pass are not revisited.
func (f *FTL) CollectAll(now event.Time) error {
	if f.inGC {
		return nil
	}
	f.inGC = true
	defer func() { f.inGC = false }()
	f.stats.GCInvocations++
	var victims []flash.BlockID
	for b := range f.blocks {
		if f.blocks[b].state == blkClosed {
			victims = append(victims, flash.BlockID(b))
		}
	}
	for _, v := range victims {
		if f.blocks[v].state != blkClosed {
			continue // freed or reopened meanwhile
		}
		if err := f.collect(now, v); err != nil {
			return fmt.Errorf("ftl: consolidation gc of block %d: %w", v, err)
		}
	}
	return nil
}

// collect reclaims one victim block: migrate valid pages, erase, free.
//
// Timing model: in the overlapped mode (Baseline GC, and CAGC with
// OverlapHash) every flash operation of the collection is enqueued at
// `now` on its die and drains behind whatever that die is already
// doing; the victim's erase queues on the victim die after the valid-
// page reads (once a page is read into controller RAM the block may be
// erased; copies to other blocks proceed in parallel with the erase —
// the paper's parallelization). In the serial ablation each page is
// processed as a strict read → hash → program chain and the erase waits
// for the last chain, which wastes die time on purpose — it quantifies
// what the overlap buys.
func (f *FTL) collect(now event.Time, victim flash.BlockID) error {
	blk, err := f.dev.Block(victim)
	if err != nil {
		return err
	}
	// The collect span is detached (no parent): the erase routinely
	// completes after the user request that tripped the watermark, so
	// claiming to nest inside it would be a lie the nesting invariant
	// rightly rejects. Die, hash, and GC events recorded during the
	// collection still parent to this span.
	id := f.tr.Begin(obs.TrackGC, obs.KGCCollect, now, uint64(victim))
	f.gcHashEnd = 0
	// The victim leaves the index for the whole collection (see
	// victimIndex) and returns to it only if the collection fails.
	if n := blk.Invalid(); n > 0 {
		f.vix.remove(victim, n)
	}
	f.blocks[victim].state = blkVictim
	done, err := f.collectVictim(now, victim, blk)
	if err != nil {
		f.blocks[victim].state = blkClosed
		f.indexClosed(victim, blk)
	}
	// With OverlapHash a fingerprint can complete after both the erase
	// and the last program; the span must enclose it.
	if f.gcHashEnd > done {
		done = f.gcHashEnd
	}
	if done < now {
		done = now
	}
	f.tr.End(id, done)
	if err == nil {
		f.tr.Counter(obs.TrackIndex, obs.KIndexLive, done, uint64(f.LiveContents()))
	}
	return err
}

// collectVictim is collect's body; it returns the virtual time at which
// every flash and hash operation of the collection has completed.
func (f *FTL) collectVictim(now event.Time, victim flash.BlockID, blk *flash.Block) (event.Time, error) {
	// blockDone gates the erase in the serial mode only.
	blockDone := now
	// cursor gates each page chain in the serial (no-overlap) mode.
	cursor := now

	for i := 0; i < f.geo.PagesPerBlock; i++ {
		if blk.State(i) != flash.PageValid {
			continue
		}
		ppn := f.dec.PageOf(victim, i)
		owner := f.owners[ppn]
		if owner == nilSlot {
			return 0, fmt.Errorf("valid ppn %d without owner", ppn)
		}
		done, err := f.migratePage(now, &cursor, ppn, owner)
		if err != nil {
			return 0, err
		}
		if done > blockDone {
			blockDone = done
		}
	}

	migrated := now
	if f.opts.GCDedup && !f.opts.OverlapHash {
		migrated = blockDone
	}
	eraseEnd, err := f.dev.EraseBlock(now, migrated, victim)
	if errors.Is(err, flash.ErrWornOut) {
		// Bad-block management: the block is retired. Its valid pages
		// were already migrated, so no data is lost — the device just
		// shrinks by one block. The migrations still occupied the dies.
		f.blocks[victim].state = blkDead
		f.stats.BadBlocks++
		if blockDone > f.gcBusyUntil {
			f.gcBusyUntil = blockDone
		}
		return blockDone, nil
	}
	if err != nil {
		return 0, err
	}
	if eraseEnd > f.gcBusyUntil {
		f.gcBusyUntil = eraseEnd
	}
	if blockDone > f.gcBusyUntil {
		f.gcBusyUntil = blockDone
	}
	f.pushFree(victim)
	f.stats.BlocksErased++
	done := eraseEnd
	if blockDone > done {
		done = blockDone
	}
	return done, nil
}

// migratePage relocates (or dedups away) one valid page during GC and
// returns the completion time of its processing.
func (f *FTL) migratePage(now event.Time, cursor *event.Time, ppn flash.PPN, owner slot) (event.Time, error) {
	overlap := !f.opts.GCDedup || f.opts.OverlapHash
	start := now
	if !overlap {
		start = *cursor
	}

	f.stats.GCReads++
	readEnd, err := f.dev.ReadPage(start, ppn)
	if err != nil {
		return 0, err
	}

	if f.opts.GCDedup {
		hashed := false // a private page never is
		if !owner.private() {
			if hashed, err = f.idx.Indexed(owner.cid()); err != nil {
				return 0, err
			}
		}
		if !hashed {
			return f.migrateUnhashed(now, cursor, overlap, ppn, owner, readEnd)
		}
	}

	// Plain migration: the content keeps its CID (a private page its
	// LPN); one program. A private page has one reference.
	ref := 1
	if f.opts.HotCold && !owner.private() {
		if ref, err = f.idx.Ref(owner.cid()); err != nil {
			return 0, err
		}
	}
	dataReady := now
	if !overlap {
		dataReady = readEnd
	}
	progEnd, err := f.relocateAfter(now, dataReady, ppn, owner, f.regionFor(ref))
	if err != nil {
		return 0, err
	}
	*cursor = progEnd
	return progEnd, nil
}

// migrateUnhashed handles the CAGC path for content the index cannot
// see — a private page, never hashed, or shared content whose
// fingerprint the capacity bound evicted: hash it, then either fold it
// into the indexed copy or index and write it.
func (f *FTL) migrateUnhashed(now event.Time, cursor *event.Time, overlap bool, ppn flash.PPN, owner slot, readEnd event.Time) (event.Time, error) {
	hashAt := now
	if !overlap {
		hashAt = readEnd
	}
	hashEnd := f.reserveHash(hashAt, readEnd)

	fp, err := f.fingerprint(ppn, owner)
	if err != nil {
		return 0, err
	}
	if owner.private() {
		f.private-- // it becomes shared content either way
	}
	if c2, hit := f.idx.Lookup(fp); hit {
		// Redundant copy: drop the page; its references join c2.
		var newRef int
		if owner.private() {
			if newRef, err = f.idx.AdoptPrivate(c2); err != nil {
				return 0, err
			}
			f.bind(owner.page(), cidSlot(c2))
		} else {
			f.remapAll(owner.cid(), c2)
			if newRef, err = f.idx.MergeInto(owner.cid(), c2); err != nil {
				return 0, err
			}
		}
		if err := f.invalidatePage(ppn); err != nil {
			return 0, err
		}
		f.owners[ppn] = nilSlot
		f.stats.GCDupDropped++
		f.tr.Instant(obs.TrackGC, obs.KGCDedupHit, hashEnd, uint64(ppn))
		done := hashEnd

		// Crossing the threshold promotes the surviving copy to the
		// cold region (Figure 5: "Ref == threshold? -> data migration").
		if f.opts.HotCold && newRef > f.opts.RefThreshold {
			promoAfter := now
			if !overlap {
				promoAfter = hashEnd
			}
			promoEnd, moved, err := f.promote(now, promoAfter, c2)
			if err != nil {
				return 0, err
			}
			if moved && promoEnd > done {
				done = promoEnd
			}
		}
		*cursor = done
		return done, nil
	}

	// First indexed copy of this content: index it and migrate.
	c := owner.cid()
	if owner.private() {
		if c, err = f.idx.Insert(fp, ppn); err != nil {
			return 0, err
		}
		f.bind(owner.page(), cidSlot(c))
	} else if err := f.idx.Publish(c); err != nil {
		return 0, err
	}
	f.tr.Instant(obs.TrackGC, obs.KGCPublish, hashEnd, uint64(ppn))
	ref, err := f.idx.Ref(c)
	if err != nil {
		return 0, err
	}
	dataReady := now
	if !overlap {
		dataReady = hashEnd
	}
	progEnd, err := f.relocateAfter(now, dataReady, ppn, cidSlot(c), f.regionFor(ref))
	if err != nil {
		return 0, err
	}
	*cursor = progEnd
	return progEnd, nil
}

// fingerprint returns the content fingerprint of ppn, owned by owner:
// the programmed tag for a private page (what GC's hash of it
// computes), the CID's fingerprint otherwise.
func (f *FTL) fingerprint(ppn flash.PPN, owner slot) (dedup.Fingerprint, error) {
	if owner.private() {
		tag, err := f.dev.Tag(ppn)
		return dedup.Fingerprint(tag), err
	}
	return f.idx.FP(owner.cid())
}

// relocateAfter copies owner's content from oldPPN into region, data
// available at dataReady, and updates all metadata: the CID's location,
// or a private page's LPN.
func (f *FTL) relocateAfter(now, dataReady event.Time, oldPPN flash.PPN, owner slot, region Region) (event.Time, error) {
	fp, err := f.fingerprint(oldPPN, owner)
	if err != nil {
		return 0, err
	}
	// Figure 4's demotion arrow: a page whose reference count fell back
	// to the hot range leaves the cold region when its block is
	// collected (lazy demotion — no extra copies, the migration was
	// happening anyway).
	if f.opts.HotCold && region == Hot &&
		f.blocks[f.dec.BlockOf(oldPPN)].region == Cold {
		f.stats.Demotions++
		f.tr.Instant(obs.TrackGC, obs.KDemote, now, uint64(oldPPN))
	}
	dest, progEnd, err := f.program(region, now, dataReady, fp)
	if err != nil {
		return 0, err
	}
	if owner.private() {
		// GC-side map updates are batched, not charged (see cmt).
		f.mapping[owner.page()] = privateSlot(uint64(dest))
	} else if err := f.idx.SetPPN(owner.cid(), dest); err != nil {
		return 0, err
	}
	f.owners[dest] = owner
	if err := f.invalidatePage(oldPPN); err != nil {
		return 0, err
	}
	f.owners[oldPPN] = nilSlot
	f.stats.PagesMigrated++
	return progEnd, nil
}

// promote moves c's page into the cold region if it currently lives in
// a hot block. Returns moved=false when it is already cold (or its
// block is already cold-tagged).
func (f *FTL) promote(now, after event.Time, c dedup.CID) (event.Time, bool, error) {
	if f.freeCount < 2 {
		// Promotion consumes a frontier page without freeing one; skip
		// it when the free pool is nearly exhausted so GC always makes
		// forward progress.
		return 0, false, nil
	}
	ppn, err := f.idx.PPN(c)
	if err != nil {
		return 0, false, err
	}
	if f.blocks[f.dec.BlockOf(ppn)].region == Cold {
		return 0, false, nil
	}
	st, err := f.dev.PageStateOf(ppn)
	if err != nil {
		return 0, false, err
	}
	if st != flash.PageValid {
		return 0, false, fmt.Errorf("promote: CID %d page %d in state %v", c, ppn, st)
	}
	readEnd, err := f.dev.ReadPage(after, ppn)
	if err != nil {
		return 0, false, err
	}
	fp, err := f.idx.FP(c)
	if err != nil {
		return 0, false, err
	}
	dest, progEnd, err := f.program(Cold, now, readEnd, fp)
	if err != nil {
		return 0, false, err
	}
	if err := f.idx.SetPPN(c, dest); err != nil {
		return 0, false, err
	}
	f.owners[dest] = cidSlot(c)
	if err := f.invalidatePage(ppn); err != nil {
		return 0, false, err
	}
	f.owners[ppn] = nilSlot
	f.stats.Promotions++
	f.tr.Instant(obs.TrackGC, obs.KPromote, progEnd, uint64(dest))
	return progEnd, true, nil
}

// remapAll repoints every LPN referencing from at to: the reverse map
// is exact, so from's chain is precisely those LPNs (at least one: from
// is live), and the whole chain then moves onto to's in one splice.
func (f *FTL) remapAll(from, to dedup.CID) {
	tail := nilNode
	for n := f.rev.heads[from]; n != nilNode; n = f.rev.next[n] {
		f.mapping[n] = cidSlot(to)
		tail = n
	}
	f.rev.splice(from, to, tail)
}
