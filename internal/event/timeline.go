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
	busy   Time // total busy time accumulated
	ops    uint64
}

// NewTimeline returns a timeline that is free from time zero.
func NewTimeline() *Timeline { return &Timeline{} }

// FreeAt returns the earliest time a new reservation could start.
func (tl *Timeline) FreeAt() Time { return tl.freeAt }

// Busy returns the cumulative time the resource has been reserved.
func (tl *Timeline) Busy() Time { return tl.busy }

// Ops returns the number of reservations made.
func (tl *Timeline) Ops() uint64 { return tl.ops }

// Reserve books the resource for dur ticks starting no earlier than at,
// and no earlier than the end of all previous reservations. It returns
// the realized start and end times.
func (tl *Timeline) Reserve(at, dur Time) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	start = at
	if tl.freeAt > start {
		start = tl.freeAt
	}
	end = start + dur
	tl.freeAt = end
	tl.busy += dur
	tl.ops++
	return start, end
}

// ReserveAfter is Reserve but also not earlier than the given dependency
// completion time dep (data dependency: the input of this operation is
// produced at dep).
func (tl *Timeline) ReserveAfter(at, dep, dur Time) (start, end Time) {
	if dep > at {
		at = dep
	}
	return tl.Reserve(at, dur)
}

// CopyFrom makes tl equal src. Timeline state is three scalars, so the
// copy is exact by construction.
func (tl *Timeline) CopyFrom(src *Timeline) { *tl = *src }

// Utilization returns busy time divided by the span [0, horizon].
// A zero or negative horizon yields 0.
func (tl *Timeline) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(tl.busy) / float64(horizon)
}
