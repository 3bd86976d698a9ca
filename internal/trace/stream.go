package trace

// Decode-ahead streaming ingestion. Pulling requests synchronously
// through Source.Next() serializes file I/O, parsing and trace
// generation with the simulator's hot loop. Stream moves the source onto
// a background goroutine that hands fixed-size request chunks to the
// consumer over a small bounded ring: producing overlaps simulation, and
// reader-side live memory stays O(chunk × depth) — a fixed budget —
// instead of O(trace). File replays, scenarios and long generated
// replays (Ahead) share this one path.
//
// The contract is byte-identity: a Stream yields exactly the requests
// of its underlying source, in order; only wall-clock and memory change.
// Decode errors are carried across the goroutine boundary and surface
// through Err after the stream ends, never as silent truncation.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/obs"
)

// The ring's geometry: chunks of 256 requests, 4 chunks decoded ahead.
// A chunk also closes early rather than let its fingerprints pass
// ChunkFingerprints (128 KiB); a request longer than that gets a chunk
// to itself. With the two buffers held by producer and consumer the
// live set is (ChunkDepth+2) chunks of ChunkRequests headers and
// max(ChunkFingerprints, one request) fingerprints — a few hundred KiB,
// whatever the trace's length or request sizes. The paper's workloads
// put about 2 k fingerprints in a chunk, so only the request count
// closes theirs.
const (
	ChunkRequests     = 256
	ChunkDepth        = 4
	ChunkFingerprints = 16 << 10
)

// AheadMinRequests is the shortest run Ahead puts on a ring. Below it
// the goroutine start, the wait for the first chunk and the handoffs
// eat most of what producing in parallel saves: a fleet sweep over run
// lengths on a 2-vCPU host put the crossover between 1 250 and 1 500
// requests per run, and 2 048 is the first length where the wall-clock
// gain reaches 10 % (EXPERIMENTS.md, run-length sweep).
const AheadMinRequests = 8 * ChunkRequests

// Ahead runs src one ring ahead of its consumer: it returns a
// decode-ahead Stream over src and the function that releases it.
// requests is the run's length, negative when unknown (a file or a
// merge of files); a known run shorter than AheadMinRequests keeps src
// on the consumer's goroutine and gets a no-op release. Callers defer
// the release, so an error, a deadline or a panic that ends the replay
// early never leaks the producer.
func Ahead(src Source, requests int, opts StreamOptions) (Source, func()) {
	if requests >= 0 && requests < AheadMinRequests {
		return src, func() {}
	}
	st := NewStream(src, opts)
	return st, st.Close
}

// chunk is one ring buffer. Its requests' fingerprints live in its own
// slab, copied out of the source's recycled buffer as each request is
// decoded, so they stay valid until the consumer hands the chunk back.
type chunk struct {
	reqs []Request
	slab []dedup.Fingerprint
}

// fits reports whether r can join c without passing the fingerprint
// budget; an empty chunk takes any request.
func (c *chunk) fits(r Request) bool {
	return len(c.reqs) == 0 || len(c.slab)+len(r.FPs) <= ChunkFingerprints
}

// add appends r with its fingerprints copied into the slab.
func (c *chunk) add(r Request) {
	if r.FPs != nil {
		off, n := len(c.slab), len(r.FPs)
		if off+n > cap(c.slab) {
			c.grow(off + n)
		}
		c.slab = append(c.slab, r.FPs...)
		r.FPs = c.slab[off : off+n : off+n]
	}
	c.reqs = append(c.reqs, r)
}

// grow moves the slab to one of at least need fingerprints and points
// the chunk's requests at the copy. It doubles, but not past the budget
// unless one request needs it: putChunk drops a slab above the budget.
func (c *chunk) grow(need int) {
	grown := make([]dedup.Fingerprint, len(c.slab), max(need, min(2*cap(c.slab), ChunkFingerprints)))
	copy(grown, c.slab)
	off := 0
	for i := range c.reqs {
		if fps := c.reqs[i].FPs; fps != nil {
			n := len(fps)
			c.reqs[i].FPs = grown[off : off+n : off+n]
			off += n
		}
	}
	c.slab = grown
}

// chunkPool recycles chunk buffers across streams, so a process
// replaying run after run (batch, fleet, the service) allocates ring
// buffers once rather than per run. It holds at most as many
// buffers as were ever out at once. Request slots are cleared on
// return, so a pooled chunk keeps no slab but its own reachable, and a
// slab that grew past ChunkFingerprints for one long request is
// dropped. A plain free list rather than a sync.Pool, which drops
// entries at every GC (and at random under -race), so that a stream
// returning each buffer exactly once stays checkable.
var chunkPool struct {
	mu   sync.Mutex
	free []*chunk
}

// getChunk returns an empty chunk buffer, from the pool when it has one.
func getChunk() *chunk {
	chunkPool.mu.Lock()
	defer chunkPool.mu.Unlock()
	if k := len(chunkPool.free); k > 0 {
		c := chunkPool.free[k-1]
		chunkPool.free[k-1] = nil
		chunkPool.free = chunkPool.free[:k-1]
		return c
	}
	return &chunk{reqs: make([]Request, 0, ChunkRequests)}
}

// putChunk clears c and returns it to the pool.
func putChunk(c *chunk) {
	clear(c.reqs[:cap(c.reqs)])
	c.reqs = c.reqs[:0]
	c.slab = c.slab[:0]
	if cap(c.slab) > ChunkFingerprints {
		c.slab = nil
	}
	chunkPool.mu.Lock()
	chunkPool.free = append(chunkPool.free, c)
	chunkPool.mu.Unlock()
}

// requestFootprint approximates the in-memory bytes of one Request
// struct (header only; fingerprints are accounted by their slab).
const (
	requestFootprint = 56
	fingerprintBytes = 8
)

// StreamOptions configures a Stream's telemetry.
type StreamOptions struct {
	// Tracer, when non-nil, receives ingest telemetry on the "ingest"
	// track: one span per decoded chunk and an instant per ring stall
	// (the consumer wanting a chunk the decoder had not produced yet).
	// Times are wall-clock relative to the stream's construction — the
	// decoder works in real time around the simulation, not inside it.
	Tracer *obs.Recorder
}

// StreamStats reports a stream's ingestion behaviour. Counters are
// harness-side facts (wall-clock ordering dependent); they never enter
// deterministic results.
type StreamStats struct {
	Requests uint64 // requests handed to the consumer
	Chunks   uint64 // chunks decoded
	// Stalls counts chunk handoffs where the consumer found the ring
	// empty and had to wait for the decoder — the measure of how often
	// decode failed to stay ahead of simulation.
	Stalls uint64
	// PeakLiveBytes is the high-water mark of the reader-side resident
	// set: request headers plus fingerprint payloads of every chunk
	// decoded but not yet consumed. It is the bounded-memory guarantee:
	// it depends on the ring's geometry, never on trace length.
	PeakLiveBytes int64
}

// StallRatio returns the fraction of chunk handoffs that stalled.
func (s StreamStats) StallRatio() float64 {
	if s.Chunks == 0 {
		return 0
	}
	return float64(s.Stalls) / float64(s.Chunks)
}

// Stream adapts a Source into a decode-ahead source. It implements
// ErrSource; it is not safe for concurrent Next calls (sources never
// are), but the decode goroutine runs concurrently with the consumer.
type Stream struct {
	src Source
	tr  *obs.Recorder
	t0  time.Time

	out  chan *chunk
	free chan *chunk
	quit chan struct{}

	cur    *chunk
	pos    int
	closed bool
	err    error // surfaced via Err after the stream ends

	// decErr is written by the producer before it closes out; the
	// channel close orders it before the consumer's read.
	decErr error

	requests  uint64
	chunks    atomic.Uint64
	stalls    uint64
	liveBytes atomic.Int64
	peakBytes atomic.Int64
}

// NewStream wraps src. A background goroutine starts decoding
// immediately; call Close to release it if the stream is abandoned
// before Next returns false.
func NewStream(src Source, opts StreamOptions) *Stream {
	s := &Stream{
		src: src,
		tr:  opts.Tracer,
		t0:  time.Now(),
		out: make(chan *chunk, ChunkDepth),
		// Producer holds one buffer and the consumer one more, so the
		// free list is sized to make every return non-blocking.
		free: make(chan *chunk, ChunkDepth+2),
		quit: make(chan struct{}),
	}
	for i := 0; i < ChunkDepth+2; i++ {
		s.free <- getChunk()
	}
	go s.produce()
	return s
}

// wall returns the wall-clock offset since construction, the time base
// of the ingest track (mirroring the fleet and serve tracks).
func (s *Stream) wall() event.Time { return event.Time(time.Since(s.t0)) }

// chunkBytes approximates the live footprint of one decoded chunk: its
// request slots and the fingerprints in its slab.
func chunkBytes(c *chunk) int64 {
	return int64(cap(c.reqs))*requestFootprint + int64(len(c.slab))*fingerprintBytes
}

// produce decodes chunks ahead of the consumer until the source ends,
// a decode error occurs, or the stream is closed. Every buffer it takes
// goes back out, either as a chunk or to the free list, so once out is
// closed the consumer can account for all of them.
func (s *Stream) produce() {
	defer close(s.out)
	defer func() {
		// A panicking source fails the stream like a decode error: this
		// goroutine has no caller to unwind into, and an unrecovered
		// panic here would take the whole process down.
		if p := recover(); p != nil {
			s.decErr = fmt.Errorf("trace: source panicked: %v", p)
		}
	}()
	// A request that would pass a chunk's fingerprint budget waits for
	// the next chunk; its FPs stay valid because the source is not
	// called again until it has been copied.
	var held Request
	holding := false
	for {
		var c *chunk
		select {
		case c = <-s.free:
		case <-s.quit:
			return
		}
		c.reqs, c.slab = c.reqs[:0], c.slab[:0]
		start := s.wall()
		if holding {
			c.add(held)
			held, holding = Request{}, false
		}
		more := true
		for len(c.reqs) < ChunkRequests {
			r, ok := s.src.Next()
			if !ok {
				s.decErr = SourceErr(s.src)
				more = false
				break
			}
			if !c.fits(r) {
				held, holding = r, true
				break
			}
			c.add(r)
		}
		if len(c.reqs) == 0 {
			s.free <- c
			return
		}
		s.finishChunk(c, start)
		select {
		case s.out <- c:
		case <-s.quit:
			s.free <- c
			return
		}
		if !more {
			return
		}
	}
}

// finishChunk accounts one decoded chunk and records its ingest span.
func (s *Stream) finishChunk(c *chunk, start event.Time) {
	s.chunks.Add(1)
	live := s.liveBytes.Add(chunkBytes(c))
	for {
		peak := s.peakBytes.Load()
		if live <= peak || s.peakBytes.CompareAndSwap(peak, live) {
			break
		}
	}
	s.tr.Span(obs.TrackIngest, obs.KIngestChunk, start, s.wall(), uint64(len(c.reqs)))
}

// Next implements Source. The steady-state path (a request already in
// the current chunk) is allocation-free; chunk buffers recycle through
// the free list, so priming the ring is the only allocation the handoff
// ever performs.
func (s *Stream) Next() (Request, bool) {
	if s.cur != nil && s.pos < len(s.cur.reqs) {
		r := s.cur.reqs[s.pos]
		s.pos++
		s.requests++
		return r, true
	}
	if s.closed {
		return Request{}, false
	}
	if s.cur != nil {
		s.liveBytes.Add(-chunkBytes(s.cur))
		s.free <- s.cur
		s.cur = nil
	}
	var next *chunk
	var ok bool
	select {
	case next, ok = <-s.out:
	default:
		// The ring is empty. The wait is a stall, the decoder not having
		// kept ahead, only if it ends in a chunk rather than the
		// producer's close.
		at, occupancy := s.wall(), uint64(len(s.out))
		if next, ok = <-s.out; ok {
			s.stalls++
			s.tr.Instant(obs.TrackIngest, obs.KIngestStall, at, occupancy)
		}
	}
	if !ok {
		s.err = s.decErr
		s.release()
		return Request{}, false
	}
	s.cur, s.pos = next, 0
	return s.Next()
}

// release ends the stream on the consumer's side after the producer has
// exited. By then every chunk buffer is on the free list, and each goes
// back to the pool exactly once.
func (s *Stream) release() {
	s.closed = true
	for {
		select {
		case c := <-s.free:
			putChunk(c)
		default:
			return
		}
	}
}

// Err implements ErrSource: it reports the underlying decoder's
// terminal error once the stream has ended (nil on a clean end).
func (s *Stream) Err() error { return s.err }

// Stats returns a snapshot of the stream's ingestion counters.
func (s *Stream) Stats() StreamStats {
	return StreamStats{
		Requests:      s.requests,
		Chunks:        s.chunks.Load(),
		Stalls:        s.stalls,
		PeakLiveBytes: s.peakBytes.Load(),
	}
}

// Close releases the decode goroutine and returns the ring's buffers to
// the pool. It is safe to call at any time and more than once; a stream
// drained to its end has already done both.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	close(s.quit)
	// Wait for the producer to exit, taking back the chunks it had
	// queued; the free list has room for every buffer.
	for c := range s.out {
		s.free <- c
	}
	if s.cur != nil {
		s.free <- s.cur
		s.cur = nil
	}
	s.release()
}
