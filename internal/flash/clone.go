package flash

import (
	"unsafe"

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
// Every block is copied, into d's existing state and tag arrays when it
// has them, so after the first copy a re-seed is pure copying with zero
// heap growth.
func (d *Device) CopyFrom(src *Device) int {
	if len(d.blocks) != len(src.blocks) {
		d.blocks = make([]Block, len(src.blocks))
	}
	n := 0
	for i := range src.blocks {
		n += d.copyBlock(src, i)
	}
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
	d.dieOps = append(d.dieOps[:0], src.dieOps...)
	n += len(src.dieOps) * int(unsafe.Sizeof(Stats{}))
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
