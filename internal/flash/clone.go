package flash

import (
	"slices"
	"unsafe"

	"cagc/internal/cow"
	"cagc/internal/event"
)

// Clone returns a deep, independent copy of the device: page states and
// tags, per-die timelines, the hash-engine pool, and every counter.
// Mutating either device never affects the other, and a cloned device
// replays the exact operation stream a cold device in the same state
// would — warm-state snapshots depend on that.
func (d *Device) Clone() *Device {
	c := &Device{
		cfg:    d.cfg,
		blocks: make([]Block, len(d.blocks)),
		dies:   make([]*event.Timeline, len(d.dies)),
		hash:   d.hash.Clone(),
		stats:  d.stats,
		dieOps: slices.Clone(d.dieOps),
		tr:     d.tr,
		now:    d.now,

		totalPages: d.totalPages,
		dec:        d.dec,
	}
	for i := range d.blocks {
		b := d.blocks[i]
		b.states = slices.Clone(b.states)
		b.tags = slices.Clone(b.tags)
		c.blocks[i] = b
	}
	for i, tl := range d.dies {
		c.dies[i] = tl.Clone()
	}
	return c
}

// CopyFrom makes d an exact copy of src, reusing d's existing
// allocations — the per-block state/tag arrays, the die timelines, and
// the hash pool. This is the recycled-clone path of the warm-state
// free-list: after the first clone, re-seeding a recycled device from
// the snapshot master is pure copying with zero heap growth. Observable
// behavior is identical to Clone; d must come from the same
// configuration as src (same geometry), which the snapshot layer
// guarantees.
func (d *Device) CopyFrom(src *Device) {
	if len(d.blocks) != len(src.blocks) {
		d.blocks = make([]Block, len(src.blocks))
	}
	for i := range src.blocks {
		s := &src.blocks[i]
		dst := &d.blocks[i]
		states, tags := dst.states[:0], dst.tags[:0]
		*dst = *s
		dst.states = append(states, s.states...)
		dst.tags = append(tags, s.tags...)
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
		d.hash = src.hash.Clone()
	} else {
		d.hash.CopyFrom(src.hash)
	}
	d.cfg = src.cfg
	d.stats = src.stats
	d.dieOps = append(d.dieOps[:0], src.dieOps...)
	d.totalPages = src.totalPages
	d.dec = src.dec
	d.tr = src.tr
	d.now = src.now
	d.track.Reset() // d equals src everywhere again
}

// EnableCOW turns on per-block divergence tracking so CopyDirty can
// re-seed this device from its snapshot master by copying only the
// blocks a run touched. Idempotent. Clone never inherits tracking
// (the Device literal above leaves track nil), so cold runs pay only
// nil-checks at the mark sites.
func (d *Device) EnableCOW() {
	if d.track == nil {
		d.track = cow.NewTracker(0) // chunk = one block
	}
}

// MarkAllCOW forces the next CopyDirty onto the full-copy path — the
// differential reference for the dirty-vs-full fuzz tests.
func (d *Device) MarkAllCOW() { d.track.MarkAll() }

// blockBytes is the per-block re-seed cost CopyDirty accounts: the
// page-state and OOB-tag arrays plus the block bookkeeping header.
func blockBytes(b *Block) int {
	return len(b.states)*int(unsafe.Sizeof(PageState(0))) +
		len(b.tags)*8 + int(unsafe.Sizeof(Block{}))
}

// CopyDirty re-seeds d from src, copying only the blocks d dirtied
// since it last equaled src, and returns the bytes copied. The small
// always-copied state (die timelines, hash pool, counters) is refreshed
// unconditionally and counted. Untracked or shape-changed devices fall
// back to the full CopyFrom with full-copy accounting. The result is
// always indistinguishable from CopyFrom.
func (d *Device) CopyDirty(src *Device) int {
	if d.track.All() || len(d.blocks) != len(src.blocks) {
		d.CopyFrom(src)
		n := 0
		for i := range src.blocks {
			n += blockBytes(&src.blocks[i])
		}
		return n + d.smallStateBytes(src)
	}
	n := 0
	d.track.Chunks(func(i int) {
		if i >= len(src.blocks) {
			return
		}
		s := &src.blocks[i]
		dst := &d.blocks[i]
		states, tags := dst.states[:0], dst.tags[:0]
		*dst = *s
		dst.states = append(states, s.states...)
		dst.tags = append(tags, s.tags...)
		n += blockBytes(s)
	})
	d.track.Reset()
	return n + d.smallStateBytes(src)
}

// smallStateBytes refreshes the always-copied (non-chunked) device
// state from src and returns its copy cost: per-die timelines, the
// hash-engine pool, per-die counters, and the scalar header. These are
// tiny next to the block arrays, which is why chunking ignores them.
func (d *Device) smallStateBytes(src *Device) int {
	for i, tl := range src.dies {
		d.dies[i].CopyFrom(tl)
	}
	d.hash.CopyFrom(src.hash)
	n := cow.CopyAll(&d.dieOps, src.dieOps)
	d.cfg = src.cfg
	d.stats = src.stats
	d.totalPages = src.totalPages
	d.dec = src.dec
	d.tr = src.tr
	d.now = src.now
	return n + len(src.dies)*16 + int(unsafe.Sizeof(Device{}))
}
