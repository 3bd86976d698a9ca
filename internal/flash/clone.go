package flash

import (
	"unsafe"

	"cagc/internal/cow"
	"cagc/internal/event"
)

// CopyFrom makes d equal src — page states and tags, per-die
// timelines, the hash-engine pool, and every counter — and returns the
// bytes copied. It is the only state copy the device has: cloning is
// CopyFrom into a zero Device, re-seeding a recycled runner's device is
// CopyFrom into one that already holds the arrays. Mutating either
// device afterwards never affects the other, and d replays the exact
// operation stream a cold device in src's state would — warm-state
// snapshots depend on that.
//
// A tracked d (EnableCOW) that has the master's shape copies only the
// blocks it dirtied since it last equaled src; an untracked or
// differently-shaped d copies every block. Either way d's existing
// allocations are reused, so after the first copy a re-seed is pure
// copying with zero heap growth. The small always-copied state (die
// timelines, hash pool, counters) is tiny next to the block arrays,
// which is why chunking ignores it.
func (d *Device) CopyFrom(src *Device) int {
	if len(d.blocks) != len(src.blocks) {
		d.blocks = make([]Block, len(src.blocks))
		d.track.MarkAll()
	}
	n := 0
	if d.track.All() {
		for i := range src.blocks {
			n += d.copyBlock(src, i)
		}
	} else {
		d.track.Chunks(func(i int) { n += d.copyBlock(src, i) })
	}
	d.track.Reset() // d equals src everywhere again
	if len(d.dies) != len(src.dies) {
		d.dies = make([]*event.Timeline, len(src.dies))
		for i := range d.dies {
			d.dies[i] = event.NewTimeline()
		}
	}
	for i, tl := range src.dies {
		d.dies[i].CopyFrom(tl)
	}
	if d.hash == nil {
		d.hash = new(event.Pool)
	}
	d.hash.CopyFrom(src.hash)
	n += cow.CopyAll(&d.dieOps, src.dieOps)
	d.cfg = src.cfg
	d.stats = src.stats
	d.totalPages = src.totalPages
	d.dec = src.dec
	d.tr = src.tr
	d.now = src.now
	return n + len(src.dies)*16 + int(unsafe.Sizeof(Device{}))
}

// copyBlock makes d's block i equal src's, reusing its state and tag
// arrays, and returns the accounted copy cost: the two arrays plus the
// block bookkeeping header.
func (d *Device) copyBlock(src *Device, i int) int {
	s, dst := &src.blocks[i], &d.blocks[i]
	states, tags := dst.states[:0], dst.tags[:0]
	*dst = *s
	dst.states = append(states, s.states...)
	dst.tags = append(tags, s.tags...)
	return len(s.states)*int(unsafe.Sizeof(PageState(0))) +
		len(s.tags)*8 + int(unsafe.Sizeof(Block{}))
}

// EnableCOW turns on per-block divergence tracking so CopyFrom can
// re-seed this device from its snapshot master by copying only the
// blocks a run touched. Idempotent. A copy never inherits tracking, so
// cold runs pay only nil-checks at the mark sites.
func (d *Device) EnableCOW() {
	if d.track == nil {
		d.track = cow.NewTracker(0) // chunk = one block
	}
}
