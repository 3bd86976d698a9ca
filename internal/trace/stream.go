package trace

// Decode-ahead streaming ingestion. Pulling requests synchronously
// through Source.Next() serializes file I/O, parsing and trace
// generation with the simulator's hot loop. Stream moves the source onto
// a background goroutine that hands fixed-size request chunks to the
// consumer over a small bounded ring: producing overlaps simulation, and
// reader-side live memory stays O(chunk × depth) — a fixed budget —
// instead of O(trace). File replays and long generated replays (Ahead)
// share this one path.
//
// The contract is byte-identity: a Stream yields exactly the requests
// of its underlying source, in order, at any chunk size, with
// decode-ahead enabled or disabled; only wall-clock and memory change.
// Decode errors are carried across the goroutine boundary and surface
// through Err after the stream ends, never as silent truncation.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cagc/internal/event"
	"cagc/internal/obs"
)

// Streaming defaults: chunks of 256 requests, 4 chunks decoded ahead.
// With the two buffers held by producer and consumer the live set is
// (Depth+2) × ChunkRequests requests — a few hundred KiB on the paper's
// workloads, independent of trace length.
const (
	DefaultChunkRequests = 256
	DefaultChunkDepth    = 4
)

// AheadMinRequests is the shortest run Ahead puts on a ring. Below it
// the goroutine start, the wait for the first chunk and the handoffs
// eat most of what producing in parallel saves: a fleet sweep over run
// lengths on a 2-vCPU host put the crossover between 1 250 and 1 500
// requests per run, and 2 048 is the first length where the wall-clock
// gain reaches 10 % (EXPERIMENTS.md, run-length sweep).
const AheadMinRequests = 8 * DefaultChunkRequests

// Ahead runs src one ring ahead of its consumer: it returns a
// decode-ahead Stream over src and the function that releases it.
// requests is the run's length, negative when unknown (a file or a
// merge of files); a known run shorter than AheadMinRequests, or opts
// asking for Sync, keeps src on the consumer's goroutine and gets a
// no-op release. Callers defer the release, so an error, a deadline or
// a panic that ends the replay early never leaks the producer.
func Ahead(src Source, requests int, opts StreamOptions) (Source, func()) {
	if opts.Sync || (requests >= 0 && requests < AheadMinRequests) {
		return src, func() {}
	}
	st := NewStream(src, opts)
	return st, st.Close
}

// chunkPool recycles default-size chunk buffers across streams, so a
// process replaying run after run (batch, fleet, the service) allocates
// ring buffers once rather than per run. It holds at most as many
// buffers as were ever out at once. Buffers are cleared on return: a
// pooled buffer must not keep a finished run's fingerprints reachable.
// A plain free list rather than a sync.Pool, which drops entries at
// every GC (and at random under -race), so that a stream returning each
// buffer exactly once stays checkable.
var chunkPool struct {
	mu   sync.Mutex
	free [][]Request
}

// getChunk returns an empty buffer of capacity n, pooled when n is the
// default chunk size.
func getChunk(n int) []Request {
	if n == DefaultChunkRequests {
		chunkPool.mu.Lock()
		if k := len(chunkPool.free); k > 0 {
			b := chunkPool.free[k-1]
			chunkPool.free[k-1] = nil
			chunkPool.free = chunkPool.free[:k-1]
			chunkPool.mu.Unlock()
			return b
		}
		chunkPool.mu.Unlock()
	}
	return make([]Request, 0, n)
}

// putChunk clears b and returns it to the pool; other sizes are left
// to the garbage collector.
func putChunk(b []Request) {
	if cap(b) != DefaultChunkRequests {
		return
	}
	clear(b[:cap(b)])
	chunkPool.mu.Lock()
	chunkPool.free = append(chunkPool.free, b[:0])
	chunkPool.mu.Unlock()
}

// requestFootprint approximates the in-memory bytes of one Request
// struct (header only; fingerprint payloads are accounted per-slice).
const requestFootprint = 56

// StreamOptions tunes a Stream. The zero value gives the defaults.
type StreamOptions struct {
	// ChunkRequests is the number of requests per handoff chunk
	// (default DefaultChunkRequests).
	ChunkRequests int
	// Depth is how many decoded chunks the background goroutine may
	// buffer ahead of the consumer (default DefaultChunkDepth).
	Depth int
	// Sync disables decode-ahead: requests are decoded on the
	// consumer's goroutine, one Next at a time — the reference mode
	// byte-identity is checked against, and the baseline the
	// replay_stream benchmark compares decode-ahead to.
	Sync bool
	// Tracer, when non-nil, receives ingest telemetry on the "ingest"
	// track: one span per decoded chunk and an instant per ring stall
	// (the consumer wanting a chunk the decoder had not produced yet).
	// Times are wall-clock relative to the stream's construction — the
	// decoder works in real time around the simulation, not inside it.
	Tracer obs.Tracer
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
	// LiveBytes and PeakLiveBytes account the reader-side resident
	// set: request headers plus fingerprint payloads of every chunk
	// decoded but not yet consumed. Peak is the bounded-memory
	// guarantee: it depends on chunk size and depth, never on trace
	// length.
	LiveBytes     int64
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
	src      Source
	sync     bool
	chunkCap int
	tr       obs.Tracer
	t0       time.Time

	out  chan []Request
	free chan []Request
	quit chan struct{}

	cur    []Request
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

// NewStream wraps src. In the default (decode-ahead) mode a background
// goroutine starts decoding immediately; call Close to release it if
// the stream is abandoned before Next returns false.
func NewStream(src Source, opts StreamOptions) *Stream {
	if opts.ChunkRequests <= 0 {
		opts.ChunkRequests = DefaultChunkRequests
	}
	if opts.Depth <= 0 {
		opts.Depth = DefaultChunkDepth
	}
	s := &Stream{
		src:      src,
		sync:     opts.Sync,
		chunkCap: opts.ChunkRequests,
		tr:       obs.Or(opts.Tracer),
		t0:       time.Now(),
	}
	if !s.sync {
		s.out = make(chan []Request, opts.Depth)
		// Producer holds one buffer and the consumer one more, so the
		// free list is sized to make every return non-blocking.
		s.free = make(chan []Request, opts.Depth+2)
		for i := 0; i < opts.Depth+2; i++ {
			s.free <- getChunk(s.chunkCap)
		}
		s.quit = make(chan struct{})
		go s.produce()
	}
	return s
}

// wall returns the wall-clock offset since construction, the time base
// of the ingest track (mirroring the fleet and serve tracks).
func (s *Stream) wall() event.Time { return event.Time(time.Since(s.t0)) }

// chunkBytes approximates the live footprint of one decoded chunk.
func chunkBytes(reqs []Request) int64 {
	n := int64(cap(reqs)) * requestFootprint
	for i := range reqs {
		n += int64(len(reqs[i].FPs)) * 8
	}
	return n
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
	for {
		var buf []Request
		select {
		case buf = <-s.free:
		case <-s.quit:
			return
		}
		buf = buf[:0]
		start := s.wall()
		more := true
		for len(buf) < s.chunkCap {
			r, ok := s.src.Next()
			if !ok {
				s.decErr = SourceErr(s.src)
				more = false
				break
			}
			buf = append(buf, r)
		}
		if len(buf) == 0 {
			s.free <- buf
			return
		}
		s.finishChunk(buf, start)
		select {
		case s.out <- buf:
		case <-s.quit:
			s.free <- buf
			return
		}
		if !more {
			return
		}
	}
}

// finishChunk accounts one decoded chunk and records its ingest span.
func (s *Stream) finishChunk(buf []Request, start event.Time) {
	s.chunks.Add(1)
	live := s.liveBytes.Add(chunkBytes(buf))
	for {
		peak := s.peakBytes.Load()
		if live <= peak || s.peakBytes.CompareAndSwap(peak, live) {
			break
		}
	}
	s.tr.Span(obs.TrackIngest, obs.KIngestChunk, start, s.wall(), uint64(len(buf)))
}

// Next implements Source. The steady-state path (a request already in
// the current chunk) is allocation-free; chunk buffers recycle through
// the free list, so priming the ring is the only allocation the handoff
// ever performs.
func (s *Stream) Next() (Request, bool) {
	if s.pos < len(s.cur) {
		r := s.cur[s.pos]
		s.pos++
		s.requests++
		return r, true
	}
	if s.sync {
		r, ok := s.src.Next()
		if !ok {
			s.err = SourceErr(s.src)
			return Request{}, false
		}
		s.requests++
		if (s.requests-1)%uint64(s.chunkCap) == 0 {
			s.chunks.Add(1)
		}
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
	var next []Request
	var ok bool
	select {
	case next, ok = <-s.out:
	default:
		// The ring is empty: the decoder has not kept ahead.
		s.stalls++
		s.tr.Instant(obs.TrackIngest, obs.KIngestStall, s.wall(), uint64(len(s.out)))
		next, ok = <-s.out
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
		case b := <-s.free:
			putChunk(b)
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
		LiveBytes:     s.liveBytes.Load(),
		PeakLiveBytes: s.peakBytes.Load(),
	}
}

// Close releases the decode goroutine and returns the ring's buffers to
// the pool. It is safe to call at any time and more than once; a stream
// drained to its end has already done both.
func (s *Stream) Close() {
	if s.quit == nil || s.closed {
		s.closed = true
		return
	}
	close(s.quit)
	// Wait for the producer to exit, taking back the chunks it had
	// queued; the free list has room for every buffer.
	for b := range s.out {
		s.free <- b
	}
	if s.cur != nil {
		s.free <- s.cur
		s.cur = nil
	}
	s.release()
}
