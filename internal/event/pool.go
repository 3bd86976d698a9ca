package event

// Pool models K identical units of a resource (e.g., the controller's
// hash engines): each reservation runs on whichever unit frees first.
// A Pool with one unit behaves exactly like a Timeline.
type Pool struct {
	units []*Timeline
}

// NewPool returns a pool of k units (k < 1 is treated as 1).
func NewPool(k int) *Pool {
	if k < 1 {
		k = 1
	}
	p := &Pool{units: make([]*Timeline, k)}
	for i := range p.units {
		p.units[i] = NewTimeline()
	}
	return p
}

// Units returns the number of parallel units.
func (p *Pool) Units() int { return len(p.units) }

// CopyFrom makes p equal src, reusing p's unit timelines when the unit
// counts match (always, except when p is a zero Pool being cloned
// into). Unit order is preserved, so the earliest-free tie-break
// (lowest index) makes the same choices on the copy as on the original.
func (p *Pool) CopyFrom(src *Pool) {
	if len(p.units) != len(src.units) {
		p.units = make([]*Timeline, len(src.units))
		for i := range p.units {
			p.units[i] = NewTimeline()
		}
	}
	for i, u := range src.units {
		p.units[i].CopyFrom(u)
	}
}

// ReserveAfterIdx books dur ticks on the earliest-free unit, starting
// no earlier than at and no earlier than dep, and returns the window
// and the index of the unit it landed on (the tracing subsystem's
// per-engine timelines attribute work by it). Unit selection scans all
// K units linearly — deliberate: K is the controller's hash-engine
// count (1–8 in every configuration, never device-sized), so a scan
// beats any priority structure and stays allocation-free. Ties on
// FreeAt resolve to the lowest-indexed unit (strict <), which keeps the
// pool deterministic.
func (p *Pool) ReserveAfterIdx(at, dep, dur Time) (start, end Time, unit int) {
	best := 0
	for i, u := range p.units[1:] {
		if u.FreeAt() < p.units[best].FreeAt() {
			best = i + 1
		}
	}
	start, end = p.units[best].ReserveAfter(at, dep, dur)
	return start, end, best
}
