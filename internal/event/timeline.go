package event

// Timeline models a resource that executes operations strictly one at a
// time (a NAND die, a controller hash engine, a DMA channel). Callers
// reserve the resource for a duration starting no earlier than a
// requested time; the timeline returns the actual [start, end) window
// under contention with earlier reservations.
//
// Timeline is intentionally simple — a single frontier — because flash
// dies and hash engines are non-preemptive FIFO resources: once an
// operation is issued it runs to completion.
type Timeline struct {
	freeAt Time
}

// NewTimeline returns a timeline that is free from time zero.
func NewTimeline() *Timeline { return &Timeline{} }

// FreeAt returns the earliest time a new reservation could start.
func (tl *Timeline) FreeAt() Time { return tl.freeAt }

// Reserve books the resource for dur ticks starting no earlier than at,
// and no earlier than the end of all previous reservations. It returns
// the realized start and end times.
func (tl *Timeline) Reserve(at, dur Time) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	start = max(at, tl.freeAt)
	end = start + dur
	tl.freeAt = end
	return start, end
}

// ReserveAfter is Reserve but also not earlier than the given dependency
// completion time dep (data dependency: the input of this operation is
// produced at dep).
func (tl *Timeline) ReserveAfter(at, dep, dur Time) (start, end Time) {
	return tl.Reserve(max(at, dep), dur)
}

// CopyFrom makes tl equal src. Timeline state is one scalar, so the
// copy is exact by construction.
func (tl *Timeline) CopyFrom(src *Timeline) { *tl = *src }
