package ftl

import (
	"fmt"
	"math/bits"

	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/obs"
)

// Bucketed victim index. Both GC surveys we track (Nagel et al.; Dayan
// & Bonnet) stress that victim selection must not cost O(device), and
// the default policy only ever wants the blocks with the most invalid
// pages. So the GC-eligible blocks — closed, at least one invalid page
// — are kept as one bitmap per invalid-page count, plus the union of
// those bitmaps and a population count for each. A block's bucket is
// its device invalid count, so the index stores nothing per block; it
// moves on exactly the transitions that change eligibility or count:
//
//	close       (program, last page)   — enter bucket `invalid`, if > 0
//	invalidate  (invalidatePage)       — closed block: bucket k-1 -> k
//	collect     (collect, on entry)    — leave: the victim's own
//	            migrations would otherwise walk it through every bucket
//	            above its own, one invalidation at a time
//	collect fails                      — re-enter at the current count
//
// Erase and retirement need no hook: they only ever follow "collect".
// Bitmaps keep every enumeration in ascending block order — the order
// of the full scan this replaces — which the seeded RandomPolicy and
// the policies' first-best tie-breaks depend on for bit-identical
// simulation results.
type victimIndex struct {
	words int // bitmap words per row
	// rows holds PagesPerBlock+1 bitmaps of `words` words each. Row
	// k > 0 has bit b set when closed block b holds exactly k invalid
	// pages; row 0 is the union of the others.
	rows []uint64
	// count[k] is the number of bits set in row k.
	count []int32
	// top is at least the highest non-empty bucket (0 when the index is
	// empty). Inserts raise it; it decays lazily, in selectVictim.
	top int
}

func newVictimIndex(blocks, pagesPerBlock int) victimIndex {
	words := (blocks + 63) / 64
	return victimIndex{
		words: words,
		rows:  make([]uint64, (pagesPerBlock+1)*words),
		count: make([]int32, pagesPerBlock+1),
	}
}

func (x *victimIndex) row(k int) []uint64 { return x.rows[k*x.words : (k+1)*x.words] }

// insert enters block b into bucket k > 0.
func (x *victimIndex) insert(b flash.BlockID, k int) {
	w, m := int(b>>6), uint64(1)<<(b&63)
	x.rows[w] |= m
	x.rows[k*x.words+w] |= m
	x.count[0]++
	x.count[k]++
	if k > x.top {
		x.top = k
	}
}

// remove takes block b out of bucket k > 0.
func (x *victimIndex) remove(b flash.BlockID, k int) {
	w, m := int(b>>6), uint64(1)<<(b&63)
	x.rows[w] &^= m
	x.rows[k*x.words+w] &^= m
	x.count[0]--
	x.count[k]--
}

// bump moves block b up into bucket k after one more of its pages went
// invalid; from bucket 0 that is its entry into the index.
func (x *victimIndex) bump(b flash.BlockID, k int) {
	if k > 1 {
		x.remove(b, k-1)
	}
	x.insert(b, k)
}

func (x *victimIndex) copyFrom(src *victimIndex) int {
	x.words, x.top = src.words, src.top
	return copyAll(&x.rows, src.rows) + copyAll(&x.count, src.count)
}

// VictimView is the read-only face of the victim index handed to a
// VictimPolicy: the eligible blocks, bucketed by invalid-page count and
// enumerable in ascending block order, plus each block's device
// bookkeeping. Bucket 0 stands for every eligible block. A view is only
// valid during the Select call it was passed to.
type VictimView struct {
	ix  *victimIndex
	dev *flash.Device
}

// Len returns the number of eligible blocks (never 0 inside Select).
func (v VictimView) Len() int { return int(v.ix.count[0]) }

// MaxInvalid returns the highest invalid-page count any eligible block
// holds, i.e. the highest non-empty bucket.
func (v VictimView) MaxInvalid() int { return v.ix.top }

// Count returns the number of blocks in bucket k.
func (v VictimView) Count(k int) int { return int(v.ix.count[k]) }

// Next returns the lowest-numbered block of bucket k that is >= from.
func (v VictimView) Next(k int, from flash.BlockID) (flash.BlockID, bool) {
	row := v.ix.row(k)
	w := int(from >> 6)
	if w >= len(row) {
		return 0, false
	}
	word := row[w] &^ (uint64(1)<<(from&63) - 1)
	for word == 0 {
		if w++; w == len(row) {
			return 0, false
		}
		word = row[w]
	}
	return flash.BlockID(w<<6 + bits.TrailingZeros64(word)), true
}

// Nth returns the n-th eligible block in ascending order, 0 <= n < Len.
func (v VictimView) Nth(n int) flash.BlockID {
	for w, word := range v.ix.row(0) {
		if c := bits.OnesCount64(word); n >= c {
			n -= c
			continue
		}
		for ; n > 0; n-- {
			word &= word - 1
		}
		return flash.BlockID(w<<6 + bits.TrailingZeros64(word))
	}
	panic("ftl: VictimView.Nth out of range")
}

// Block returns the device bookkeeping (valid/invalid pages, erases,
// last program time) of an eligible block.
func (v VictimView) Block(b flash.BlockID) *flash.Block {
	blk, err := v.dev.Block(b)
	if err != nil {
		// The index only ever holds in-range blocks; an error here means
		// the index and the device disagree — corruption, not a
		// skippable candidate.
		panic(fmt.Sprintf("ftl: victim index holds unreachable block %d: %v", b, err))
	}
	return blk
}

// selectVictim asks the policy for the next block to collect; ok is
// false when no block is eligible. Foreground, idle and forced GC all
// select through here.
func (f *FTL) selectVictim(now event.Time) (victim flash.BlockID, ok bool) {
	x := &f.vix
	if x.count[0] == 0 {
		return 0, false
	}
	for x.count[x.top] == 0 {
		x.top--
	}
	victim = f.opts.Policy.Select(now, VictimView{x, f.dev})
	f.tr.Instant(obs.TrackGC, obs.KGCSelect, now, uint64(victim))
	return victim, true
}

// indexClosed enters closed block b into the victim index if it holds
// invalid pages: a block closes with whatever was overwritten while it
// was still a frontier.
func (f *FTL) indexClosed(b flash.BlockID, blk *flash.Block) {
	if n := blk.Invalid(); n > 0 {
		f.vix.insert(b, n)
	}
}

// invalidatePage marks ppn invalid on the device and keeps the victim
// index current: an invalidation in a closed block moves it up one
// bucket.
func (f *FTL) invalidatePage(ppn flash.PPN) error {
	if err := f.dev.Invalidate(ppn); err != nil {
		return err
	}
	b := f.dec.BlockOf(ppn)
	if f.blocks[b].state == blkClosed {
		blk, err := f.dev.Block(b)
		if err != nil {
			return err
		}
		f.vix.bump(b, blk.Invalid())
	}
	return nil
}

// checkEligibleSet verifies the index against the ground-truth
// predicate: block b sits in bucket k exactly when it is closed with
// k > 0 invalid pages, row 0 is the union, every population count is
// exact, and top bounds the non-empty buckets. CheckInvariants calls it
// after every run, fleet device and batch seed, so it allocates nothing:
// with every eligible block's bit found in the union and in its own
// bucket, bit totals equal to the eligible count rule out stray bits,
// and each row's population must then equal its count.
func (f *FTL) checkEligibleSet() error {
	x := &f.vix
	eligible := int32(0)
	for b := range f.blocks {
		blk, err := f.dev.Block(flash.BlockID(b))
		if err != nil {
			return err
		}
		k := 0
		if f.blocks[b].state == blkClosed {
			k = blk.Invalid()
		}
		w, m := b>>6, uint64(1)<<(uint(b)&63)
		if inUnion := x.rows[w]&m != 0; inUnion != (k > 0) {
			return fmt.Errorf("victim index: block %d eligible=%v, want %v (state=%d invalid=%d)",
				b, inUnion, k > 0, f.blocks[b].state, blk.Invalid())
		}
		if k > 0 {
			if x.rows[k*x.words+w]&m == 0 {
				return fmt.Errorf("victim index: block %d missing from bucket %d", b, k)
			}
			eligible++
		}
	}
	bucketed := int32(0)
	for k := range x.count {
		n := int32(0)
		for _, word := range x.row(k) {
			n += int32(bits.OnesCount64(word))
		}
		if n != x.count[k] {
			return fmt.Errorf("victim index: bucket %d holds %d blocks, count says %d", k, n, x.count[k])
		}
		if k == 0 {
			if n != eligible {
				return fmt.Errorf("victim index: union holds %d blocks, want %d", n, eligible)
			}
			continue
		}
		if k > x.top && n > 0 {
			return fmt.Errorf("victim index: top %d below non-empty bucket %d", x.top, k)
		}
		bucketed += n
	}
	if bucketed != eligible {
		return fmt.Errorf("victim index: buckets hold %d blocks, want %d", bucketed, eligible)
	}
	return nil
}
