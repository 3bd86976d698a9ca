// Package obs is the simulator's tracing and telemetry subsystem: an
// always-compiled event recorder that every simulation layer (event,
// flash, ftl, buffer, dedup, sim) emits into, with exporters for Chrome
// trace_event JSON (chrome://tracing, Perfetto) and a per-phase GC
// attribution summary.
//
// The overhead contract is zero-cost-when-off: every instrumentation
// point calls through a Tracer interface whose default implementation,
// Nop, does nothing — no nil checks at call sites, no allocations, no
// timing perturbation. The recording implementation appends fixed-size
// Event structs into a chunked arena (or a bounded ring in
// flight-recorder mode), so tracing a run never changes what the run
// computes: recorders observe the virtual-time intervals the timelines
// already produce, they never reserve time themselves.
//
// Event taxonomy. Tracks are virtual threads in the Chrome trace — one
// for the request lifecycle, one for GC, one per die, one per hash
// engine, plus metadata tracks for mapping-cache stalls, the write
// buffer, and the dedup index. Kinds classify what happened; each kind
// has a fixed name, a fixed Chrome phase (span, instant, or counter),
// and a nesting rule (see Detached below).
package obs

import "cagc/internal/event"

// Track identifies one timeline row of the trace (the Chrome tid).
// Fixed singleton tracks use small values; per-die and per-hash-engine
// tracks are derived with DieTrack and HashTrack.
type Track uint32

// The singleton tracks.
const (
	// TrackRequests carries one span per user request (arrive→complete),
	// including precondition requests when the fill phase is traced.
	TrackRequests Track = 0
	// TrackGC carries GC lifecycle events: collect spans, victim-select
	// instants, dedup hits, promotions/demotions, idle windows.
	TrackGC Track = 1
	// TrackMap carries cached-mapping-table miss stalls (DFTL model).
	TrackMap Track = 2
	// TrackBuffer carries write-buffer hits and background flush spans.
	TrackBuffer Track = 3
	// TrackIndex carries dedup-index occupancy counter samples.
	TrackIndex Track = 4
	// TrackSched carries work-pool scheduling telemetry: steal and
	// re-seed totals (harness wall-clock, never simulated time).
	TrackSched Track = 5
	// TrackFleet carries fleet-execution telemetry: one span per shard
	// (the contiguous device range a worker ran), the final merge phase,
	// and straggler instants for the devices the merge ranks slowest.
	// Times on this track are harness wall-clock, not simulated time —
	// the fleet engine runs many simulations, it is not inside one.
	TrackFleet Track = 6
	// TrackServe carries serving-layer telemetry: one span per job
	// (queue-wait and execution), plus cache-hit and admission-reject
	// instants. Like TrackFleet, times are harness wall-clock — the
	// service runs simulations, it is not inside one.
	TrackServe Track = 7
	// TrackIngest carries trace-ingestion telemetry from the streaming
	// replay pipeline: one span per decoded chunk and an instant per
	// ring stall (the simulator wanting a chunk the decoder had not
	// produced yet). Like TrackFleet/TrackServe, times are harness
	// wall-clock — the decoder works in real time around the
	// simulation, not inside it.
	TrackIngest Track = 8

	trackDieBase  Track = 100
	trackHashBase Track = 10000
)

// wallClock reports whether t carries harness wall-clock times rather
// than simulated time.
func (t Track) wallClock() bool { return t >= TrackSched && t <= TrackIngest }

// DieTrack returns the track of die i (the per-die busy/idle timeline).
func DieTrack(i int) Track { return trackDieBase + Track(i) }

// HashTrack returns the track of controller hash engine i.
func HashTrack(i int) Track { return trackHashBase + Track(i) }

// IsDieTrack reports whether t is a per-die track and which die.
func IsDieTrack(t Track) (die int, ok bool) {
	if t >= trackDieBase && t < trackHashBase {
		return int(t - trackDieBase), true
	}
	return 0, false
}

// IsHashTrack reports whether t is a hash-engine track and which unit.
func IsHashTrack(t Track) (unit int, ok bool) {
	if t >= trackHashBase {
		return int(t - trackHashBase), true
	}
	return 0, false
}

// Kind classifies one trace event. Every kind has a fixed name and
// Chrome phase; see kindTable.
type Kind uint8

// The event taxonomy.
const (
	// Request lifecycle (spans on TrackRequests).
	KReqRead Kind = iota
	KReqWrite
	KReqTrim

	// Die operations (spans on DieTrack rows; realized [start, end)
	// windows from the die timeline, so spans on one die never overlap).
	KDieRead
	KDieProgram
	KDieErase
	// KDieMeta is controller-managed die traffic outside the data-page
	// state machine (translation-page I/O of the cached-mapping model).
	// It is detached: dirty write-backs are asynchronous and may outlive
	// the request that evicted them.
	KDieMeta

	// Hash engine (spans on HashTrack rows).
	KHashInline // foreground fingerprint (Inline-Dedupe write path)
	KHashGC     // GC-time fingerprint (CAGC migration path)

	// GC lifecycle (TrackGC).
	KGCCollect  // span: one victim collection, select→migrate→erase
	KGCSelect   // instant: victim chosen by the policy
	KGCDedupHit // instant: migrated page dropped as a duplicate
	KGCPublish  // instant: first copy of a content published to the index
	KPromote    // instant: page promoted to the cold region
	KDemote     // instant: cold page lazily demoted during migration
	KIdleGC     // instant: background GC ran in a host idle window
	KWearLevel  // instant: static wear-leveling swap

	// Mapping-cache stalls (spans on TrackMap).
	KMapStall

	// Write buffer (TrackBuffer).
	KBufHit   // instant: read or write served from controller RAM
	KBufFlush // span: background eviction/drain write-back (detached)

	// Dedup index telemetry (counter samples on TrackIndex).
	KIndexLive

	// Fleet execution (TrackFleet; wall-clock times).
	KFleetShard     // span: one shard of devices run by a worker (arg = first device ID)
	KFleetMerge     // span: the deterministic merge phase (arg = device count)
	KFleetStraggler // instant: a straggler device ranked by the merge (arg = device ID)

	// Work-pool scheduling (counter samples on TrackSched; wall-clock
	// times). Harness-side facts — they never enter deterministic
	// results, only telemetry and benchmark reports.
	KSchedSteal  // tasks executed by a worker other than the one they were dealt to (cumulative)
	KSchedReseed // runner re-seeds served from the clone free-list (cumulative)

	// Serving layer (TrackServe; wall-clock times).
	KServeWait     // span: a job's time in the admission queue (arg = job sequence)
	KServeJob      // span: a job's execution, dequeue → result (arg = job sequence)
	KServeCacheHit // instant: a submission answered from the result cache (arg = job sequence)
	KServeReject   // instant: a submission refused by admission control (arg = queue depth)

	// Trace ingestion (TrackIngest; wall-clock times).
	KIngestChunk // span: one chunk decoded by the background reader (arg = requests in chunk)
	KIngestStall // instant: the consumer found the ring empty (arg = ring occupancy)

	numKinds
)

// kindInfo is the static classification of one Kind.
type kindInfo struct {
	name string
	ph   byte // Chrome phase: 'X' span, 'i' instant, 'C' counter
	// detached kinds record with no parent even while a scope is open:
	// they model background work (GC collections, buffer write-backs,
	// async translation-page write-backs) that outlives the foreground
	// request it was triggered under, so they must not claim to nest
	// inside it.
	detached bool
}

// kindTable is indexed by Kind. Order must match the constants above.
var kindTable = [numKinds]kindInfo{
	KReqRead:    {name: "req.read", ph: 'X'},
	KReqWrite:   {name: "req.write", ph: 'X'},
	KReqTrim:    {name: "req.trim", ph: 'X'},
	KDieRead:    {name: "die.read", ph: 'X'},
	KDieProgram: {name: "die.program", ph: 'X'},
	KDieErase:   {name: "die.erase", ph: 'X'},
	KDieMeta:    {name: "die.meta", ph: 'X', detached: true},
	KHashInline: {name: "hash.inline", ph: 'X'},
	KHashGC:     {name: "hash.gc", ph: 'X'},
	KGCCollect:  {name: "gc.collect", ph: 'X', detached: true},
	KGCSelect:   {name: "gc.select", ph: 'i'},
	KGCDedupHit: {name: "gc.dedup_hit", ph: 'i'},
	KGCPublish:  {name: "gc.publish", ph: 'i'},
	KPromote:    {name: "gc.promote", ph: 'i'},
	KDemote:     {name: "gc.demote", ph: 'i'},
	KIdleGC:     {name: "gc.idle_window", ph: 'i'},
	KWearLevel:  {name: "gc.wear_swap", ph: 'i'},
	KMapStall:   {name: "ftl.map_stall", ph: 'X'},
	KBufHit:     {name: "buf.hit", ph: 'i'},
	KBufFlush:   {name: "buf.flush", ph: 'X', detached: true},
	// Counter series are global state samples, not nested work — and the
	// post-collect sample can land after the request that triggered GC.
	KIndexLive: {name: "index.live", ph: 'C', detached: true},
	// Fleet events are harness work around whole simulations, never
	// nested inside any request scope.
	KFleetShard:     {name: "fleet.shard", ph: 'X', detached: true},
	KFleetMerge:     {name: "fleet.merge", ph: 'X', detached: true},
	KFleetStraggler: {name: "fleet.straggler", ph: 'i', detached: true},
	// Pool-scheduler counters are wall-clock harness state, sampled
	// outside any request scope.
	KSchedSteal:  {name: "sched.steals", ph: 'C', detached: true},
	KSchedReseed: {name: "sched.reseeds", ph: 'C', detached: true},
	// Serving-layer events are harness work around whole simulations,
	// never nested inside any request scope.
	KServeWait:     {name: "serve.wait", ph: 'X', detached: true},
	KServeJob:      {name: "serve.job", ph: 'X', detached: true},
	KServeCacheHit: {name: "serve.cache_hit", ph: 'i', detached: true},
	KServeReject:   {name: "serve.reject", ph: 'i', detached: true},
	// Ingestion events are harness work around the simulation (the
	// decode goroutine), never nested inside any request scope.
	KIngestChunk: {name: "ingest.chunk", ph: 'X', detached: true},
	KIngestStall: {name: "ingest.stall", ph: 'i', detached: true},
}

// Name returns the kind's fixed event name.
func (k Kind) Name() string {
	if k >= numKinds {
		return "unknown"
	}
	return kindTable[k].name
}

// Phase returns the kind's Chrome trace phase byte ('X', 'i', or 'C').
func (k Kind) Phase() byte {
	if k >= numKinds {
		return 'i'
	}
	return kindTable[k].ph
}

// Detached reports whether events of this kind record without a parent.
func (k Kind) Detached() bool { return k < numKinds && kindTable[k].detached }

// SpanID names one recorded scope span so its end time can be filled in
// later. The zero SpanID is "no span" (what Nop returns).
type SpanID uint64

// Tracer is the instrumentation interface every simulation layer holds.
// Implementations must never affect simulated time: all times passed in
// are observations of reservations already made.
//
// Call sites never nil-check: components default to Nop, so the
// disabled path is a handful of empty dynamic calls with scalar
// arguments — zero allocations, no branches at the call site.
type Tracer interface {
	// Enabled reports whether events are being recorded. Instrumentation
	// that must do extra work to assemble an event (anything beyond
	// passing scalars it already has) guards on this.
	Enabled() bool
	// Span records a completed interval [start, end] on track.
	Span(track Track, kind Kind, start, end event.Time, arg uint64)
	// Instant records a point event.
	Instant(track Track, kind Kind, at event.Time, arg uint64)
	// Counter records a sampled value series point.
	Counter(track Track, kind Kind, at event.Time, value uint64)
	// Begin opens a scope span: events recorded until the matching End
	// become its children (unless their kind is detached). Returns the
	// span's id, or 0 from the no-op tracer.
	Begin(track Track, kind Kind, start event.Time, arg uint64) SpanID
	// End closes the scope span, setting its completion time. Ends
	// earlier than the span's start are clamped to the start.
	End(id SpanID, end event.Time)
}

// nop is the zero-overhead disabled tracer.
type nop struct{}

func (nop) Enabled() bool                                    { return false }
func (nop) Span(Track, Kind, event.Time, event.Time, uint64) {}
func (nop) Instant(Track, Kind, event.Time, uint64)          {}
func (nop) Counter(Track, Kind, event.Time, uint64)          {}
func (nop) Begin(Track, Kind, event.Time, uint64) SpanID     { return 0 }
func (nop) End(SpanID, event.Time)                           {}

// Nop is the default tracer: it records nothing and allocates nothing.
var Nop Tracer = nop{}

// Or returns tr, or Nop when tr is nil — the normalization every
// component applies when a tracer is installed.
func Or(tr Tracer) Tracer {
	if tr == nil {
		return Nop
	}
	return tr
}
