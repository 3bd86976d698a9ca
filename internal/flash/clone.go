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
// The page arrays are copied into d's existing ones when it has them,
// so after the first copy a re-seed is pure copying with zero heap
// growth.
func (d *Device) CopyFrom(src *Device) int {
	d.states = append(d.states[:0], src.states...)
	d.tags = append(d.tags[:0], src.tags...)
	d.blocks = append(d.blocks[:0], src.blocks...)
	d.window() // the copied headers still point into src.states
	d.dies = append(d.dies[:0], src.dies...)
	if d.hash == nil {
		d.hash = new(event.Pool)
	}
	d.hash.CopyFrom(src.hash)
	d.cfg = src.cfg
	d.stats = src.stats
	d.dec = src.dec
	d.tr = src.tr
	d.now = src.now
	return len(src.states)*int(unsafe.Sizeof(PageState(0))) +
		len(src.tags)*int(unsafe.Sizeof(uint64(0))) +
		len(src.blocks)*int(unsafe.Sizeof(Block{})) +
		(len(src.dies)+src.hash.Units())*int(unsafe.Sizeof(event.Timeline{})) +
		int(unsafe.Sizeof(Device{}))
}
