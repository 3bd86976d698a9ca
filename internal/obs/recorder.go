package obs

import (
	"cmp"
	"slices"
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
//     simulated-time events, for long preconditioning runs where only
//     the recent window matters. Wall-clock tracks (Track.wallClock:
//     scheduling, fleet, serve, ingest) keep their own last N in a
//     second ring, so their run-to-run varying count never moves the
//     simulated window or Dropped. Recording is allocation-free after
//     construction, apart from the wall-clock ring's one allocation on
//     its first event; evicted events are simply gone (Dropped counts
//     the simulated-time ones).
//
// Recorder is safe for concurrent use (harness-level fan-out may share
// one recorder across runs), but event interleaving across concurrent
// runs follows goroutine scheduling; single-threaded runs — every
// simulation the CLIs trace by default — record deterministically.
type Recorder struct {
	mu     sync.Mutex
	chunks [][]Event // unbounded mode
	ring   ring      // flight-recorder mode: simulated-time tracks
	wall   ring      // flight-recorder mode: wall-clock tracks
	seq    uint64    // last assigned sequence number
	scopes []scope   // open scope spans, innermost last
}

// scope is an open scope span: its sequence number and where End finds
// it (in flight-recorder mode, its position in ring or wall).
type scope struct {
	seq, pos uint64
	wall     bool
}

// ring is a flight recorder's window: the i-th event put (1-based) sits
// in slots[(i-1) % len(slots)].
type ring struct {
	slots []Event
	n     uint64 // events ever put
}

// put stores ev over the oldest slot and returns its position.
func (g *ring) put(ev Event) uint64 {
	g.n++
	g.slots[(g.n-1)%uint64(len(g.slots))] = ev
	return g.n
}

// at returns the event put at pos, or nil once it has been evicted.
func (g *ring) at(pos, seq uint64) *Event {
	if ev := &g.slots[(pos-1)%uint64(len(g.slots))]; ev.Seq == seq {
		return ev
	}
	return nil
}

// held returns the number of events the ring holds.
func (g *ring) held() int { return int(min(g.n, uint64(len(g.slots)))) }

// evicted returns the number of events the ring has let go.
func (g *ring) evicted() uint64 { return g.n - uint64(g.held()) }

// appendWindow appends the held events to out, oldest first.
func (g *ring) appendWindow(out []Event) []Event {
	for pos := g.n - uint64(g.held()) + 1; pos <= g.n; pos++ {
		out = append(out, g.slots[(pos-1)%uint64(len(g.slots))])
	}
	return out
}

// reset empties the ring, keeping its slots.
func (g *ring) reset() {
	clear(g.slots)
	g.n = 0
}

// NewRecorder returns an unbounded chunked recorder.
func NewRecorder() *Recorder {
	return &Recorder{scopes: make([]scope, 0, 16)}
}

// NewFlightRecorder returns a recorder that keeps only the last n
// simulated-time events and the last n wall-clock ones (n < 1 is
// treated as 1).
func NewFlightRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{ring: ring{slots: make([]Event, n)}, scopes: make([]scope, 0, 16)}
}

// flight reports whether r is a flight recorder.
func (r *Recorder) flight() bool { return r.ring.slots != nil }

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flight() {
		return r.ring.held() + r.wall.held()
	}
	n := 0
	for _, c := range r.chunks {
		n += len(c)
	}
	return n
}

// Dropped returns how many simulated-time events the flight-recorder
// ring evicted.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.evicted()
}

// record appends ev (Seq and Parent are assigned here) and returns
// where End finds it. Callers hold r.mu.
func (r *Recorder) record(ev Event) scope {
	r.seq++
	ev.Seq = r.seq
	if !ev.Kind.Detached() && len(r.scopes) > 0 {
		ev.Parent = r.scopes[len(r.scopes)-1].seq
	}
	sc := scope{seq: ev.Seq, pos: ev.Seq}
	if r.flight() {
		g := &r.ring
		if sc.wall = ev.Track.wallClock(); sc.wall {
			g = &r.wall
			if g.slots == nil {
				g.slots = make([]Event, len(r.ring.slots))
			}
		}
		sc.pos = g.put(ev)
		return sc
	}
	n := len(r.chunks)
	if n == 0 || len(r.chunks[n-1]) == chunkEvents {
		r.chunks = append(r.chunks, make([]Event, 0, chunkEvents))
		n++
	}
	r.chunks[n-1] = append(r.chunks[n-1], ev)
	return sc
}

// at returns the stored event of scope sc, or nil when it has been
// evicted (flight-recorder mode). Callers hold r.mu.
func (r *Recorder) at(sc scope) *Event {
	switch {
	case sc.wall:
		return r.wall.at(sc.pos, sc.seq)
	case r.flight():
		return r.ring.at(sc.pos, sc.seq)
	}
	return &r.chunks[(sc.seq-1)/chunkEvents][(sc.seq-1)%chunkEvents]
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
	sc := r.record(Event{Start: start, End: start, Track: track, Kind: kind, Arg: arg})
	r.scopes = append(r.scopes, sc)
	r.mu.Unlock()
	return SpanID(sc.seq)
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
	// Pop the scope. Scopes close LIFO in the single-threaded simulator;
	// search from the top tolerates an End whose span was never pushed
	// (impossible today, cheap insurance anyway).
	for i := len(r.scopes) - 1; i >= 0; i-- {
		if sc := r.scopes[i]; sc.seq == uint64(id) {
			if ev := r.at(sc); ev != nil {
				ev.End = max(end, ev.Start)
			}
			r.scopes = r.scopes[:i]
			break
		}
	}
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in sequence order. In
// flight-recorder mode only the surviving windows are returned, merged:
// the simulated-time events' sequence numbers have gaps where
// wall-clock events were recorded, and parents below the window are
// gone.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flight() {
		out := r.ring.appendWindow(make([]Event, 0, r.ring.held()+r.wall.held()))
		out = r.wall.appendWindow(out)
		slices.SortFunc(out, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
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
	r.ring.reset()
	r.wall.reset()
	r.seq = 0
	r.scopes = r.scopes[:0]
}
