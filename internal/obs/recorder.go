package obs

import (
	"sync"

	"cagc/internal/event"
)

// Event is one recorded trace event. Spans have End >= Start; instants
// have End == Start; counters carry their sampled value in Arg.
type Event struct {
	// Seq is the 1-based global sequence number, assigned in recording
	// order. It is the event's identity: Parent refers to it, and the
	// flight recorder evicts the lowest Seq first.
	Seq uint64
	// Parent is the Seq of the enclosing scope span, or 0 for root
	// events (no scope open, or a detached kind).
	Parent uint64
	Start  event.Time
	End    event.Time
	Track  Track
	Kind   Kind
	Arg    uint64
}

// chunkEvents is the arena chunk size. One chunk is a single allocation
// amortized over this many events, which is what keeps the recording
// recorder's allocation rate far below one per span.
const chunkEvents = 4096

// Recorder is the instrumentation sink every simulation layer holds; a
// nil *Recorder is tracing off. Two storage modes:
//
//   - Unbounded (NewRecorder): events append into a chunked arena —
//     chunks never move once allocated, so open scope spans can be
//     patched in place when they end.
//   - Flight recorder (NewFlightRecorder): a bounded ring of the last N
//     events, for long preconditioning runs where only the recent
//     window matters. Recording is allocation-free after construction;
//     evicted events are simply gone (Dropped counts them).
//
// Recorder is safe for concurrent use (harness-level fan-out may share
// one recorder across runs), but event interleaving across concurrent
// runs follows goroutine scheduling; single-threaded runs — every
// simulation the CLIs trace by default — record deterministically.
type Recorder struct {
	mu      sync.Mutex
	chunks  [][]Event // unbounded mode
	ring    []Event   // flight-recorder mode
	seq     uint64    // last assigned sequence number
	scopes  []uint64  // open scope spans, innermost last
	dropped uint64    // events evicted by the ring
}

// NewRecorder returns an unbounded chunked recorder.
func NewRecorder() *Recorder {
	return &Recorder{scopes: make([]uint64, 0, 16)}
}

// NewFlightRecorder returns a recorder that keeps only the last n
// events (n < 1 is treated as 1).
func NewFlightRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{ring: make([]Event, n), scopes: make([]uint64, 0, 16)}
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ring != nil {
		if r.seq < uint64(len(r.ring)) {
			return int(r.seq)
		}
		return len(r.ring)
	}
	n := 0
	for _, c := range r.chunks {
		n += len(c)
	}
	return n
}

// Dropped returns how many events the flight-recorder ring evicted.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// record appends ev (Seq and Parent are assigned here) and returns its
// sequence number. Callers hold r.mu.
func (r *Recorder) record(ev Event) uint64 {
	r.seq++
	ev.Seq = r.seq
	if !ev.Kind.Detached() && len(r.scopes) > 0 {
		ev.Parent = r.scopes[len(r.scopes)-1]
	}
	if r.ring != nil {
		slot := (ev.Seq - 1) % uint64(len(r.ring))
		if r.ring[slot].Seq != 0 {
			r.dropped++
		}
		r.ring[slot] = ev
		return ev.Seq
	}
	n := len(r.chunks)
	if n == 0 || len(r.chunks[n-1]) == chunkEvents {
		r.chunks = append(r.chunks, make([]Event, 0, chunkEvents))
		n++
	}
	r.chunks[n-1] = append(r.chunks[n-1], ev)
	return ev.Seq
}

// at returns the stored event with sequence number seq, or nil when it
// has been evicted (ring mode). Callers hold r.mu.
func (r *Recorder) at(seq uint64) *Event {
	if seq == 0 || seq > r.seq {
		return nil
	}
	if r.ring != nil {
		ev := &r.ring[(seq-1)%uint64(len(r.ring))]
		if ev.Seq != seq {
			return nil // evicted
		}
		return ev
	}
	return &r.chunks[(seq-1)/chunkEvents][(seq-1)%chunkEvents]
}

// Span records a completed interval [start, end] on track. Every
// recording method (Span, Instant, Counter, Begin, End) is a no-op on a
// nil Recorder and small enough to inline, so the untraced call costs
// one branch. Times are observations of reservations already made;
// recording never affects simulated time.
func (r *Recorder) Span(track Track, kind Kind, start, end event.Time, arg uint64) {
	if r != nil {
		r.add(Event{Start: start, End: max(start, end), Track: track, Kind: kind, Arg: arg})
	}
}

// Instant records a point event.
func (r *Recorder) Instant(track Track, kind Kind, at event.Time, arg uint64) {
	if r != nil {
		r.add(Event{Start: at, End: at, Track: track, Kind: kind, Arg: arg})
	}
}

// Counter records a sampled value series point.
func (r *Recorder) Counter(track Track, kind Kind, at event.Time, value uint64) {
	if r != nil {
		r.add(Event{Start: at, End: at, Track: track, Kind: kind, Arg: value})
	}
}

// add records ev under the lock.
func (r *Recorder) add(ev Event) {
	r.mu.Lock()
	r.record(ev)
	r.mu.Unlock()
}

// Begin opens a scope span: events recorded until the matching End
// become its children (unless their kind is detached). Its End time is
// provisionally the start and is patched by End. A nil Recorder returns
// the zero SpanID.
func (r *Recorder) Begin(track Track, kind Kind, start event.Time, arg uint64) SpanID {
	if r == nil {
		return 0
	}
	return r.begin(track, kind, start, arg)
}

func (r *Recorder) begin(track Track, kind Kind, start event.Time, arg uint64) SpanID {
	r.mu.Lock()
	seq := r.record(Event{Start: start, End: start, Track: track, Kind: kind, Arg: arg})
	r.scopes = append(r.scopes, seq)
	r.mu.Unlock()
	return SpanID(seq)
}

// End closes the scope span id, recording its completion time (clamped
// to the span's start). If the span was evicted by the flight-recorder
// ring the time is discarded; either way the scope is popped so later
// events stop parenting to it.
func (r *Recorder) End(id SpanID, end event.Time) {
	if r != nil && id != 0 {
		r.end(id, end)
	}
}

func (r *Recorder) end(id SpanID, end event.Time) {
	r.mu.Lock()
	if ev := r.at(uint64(id)); ev != nil {
		if end < ev.Start {
			end = ev.Start
		}
		ev.End = end
	}
	// Pop the scope. Scopes close LIFO in the single-threaded simulator;
	// search from the top tolerates an End whose span was never pushed
	// (impossible today, cheap insurance anyway).
	for i := len(r.scopes) - 1; i >= 0; i-- {
		if r.scopes[i] == uint64(id) {
			r.scopes = r.scopes[:i]
			break
		}
	}
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in sequence order. In
// flight-recorder mode only the surviving window is returned (its
// sequence numbers are contiguous; parents below the window are gone).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ring != nil {
		n := uint64(len(r.ring))
		out := make([]Event, 0, len(r.ring))
		lo := uint64(1)
		if r.seq > n {
			lo = r.seq - n + 1
		}
		for seq := lo; seq <= r.seq; seq++ {
			ev := r.ring[(seq-1)%n]
			if ev.Seq == seq {
				out = append(out, ev)
			}
		}
		return out
	}
	var out []Event
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// Reset drops every recorded event and all open scopes, keeping the
// storage mode (and ring capacity).
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.chunks = nil
	if r.ring != nil {
		for i := range r.ring {
			r.ring[i] = Event{}
		}
	}
	r.seq = 0
	r.dropped = 0
	r.scopes = r.scopes[:0]
}
