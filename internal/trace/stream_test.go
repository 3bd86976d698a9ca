package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cagc/internal/dedup"
	"cagc/internal/event"
)

// streamSpec is the reference workload the stream tests replay; large
// enough to cross many chunk boundaries.
func streamSpec() Spec {
	s := testSpec()
	s.Requests = 3000
	return s
}

func mustCollect(t *testing.T, src Source) []Request {
	t.Helper()
	got := Collect(src)
	if err := SourceErr(src); err != nil {
		t.Fatalf("source failed: %v", err)
	}
	return got
}

func requestsEqual(t *testing.T, got, want []Request, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d requests, want %d", label, len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if a.At != b.At || a.Op != b.Op || a.LPN != b.LPN || a.Pages != b.Pages || len(a.FPs) != len(b.FPs) {
			t.Fatalf("%s: request %d: %+v vs %+v", label, i, a, b)
		}
		for j := range a.FPs {
			if a.FPs[j] != b.FPs[j] {
				t.Fatalf("%s: request %d fp %d mismatch", label, i, j)
			}
		}
	}
}

// The streaming contract: a Stream yields exactly its source's
// requests, whether the source is empty, ends inside the first chunk,
// one short of, on, or one past a chunk boundary, or fills the ring
// several times over.
func TestStreamByteIdentityAcrossChunkSizes(t *testing.T) {
	g, err := NewGenerator(streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	all := Collect(g)
	if len(all) <= 6*ChunkRequests {
		t.Fatalf("reference workload has %d requests, want more than %d", len(all), 6*ChunkRequests)
	}
	for _, n := range []int{0, 1, ChunkRequests - 1, ChunkRequests, ChunkRequests + 1, len(all)} {
		want := Collect(&SliceSource{Reqs: all[:n]})
		st := NewStream(&SliceSource{Reqs: all[:n]}, StreamOptions{})
		label := fmt.Sprintf("%d requests", n)
		requestsEqual(t, mustCollect(t, st), want, label)
		stats := st.Stats()
		if stats.Requests != uint64(n) {
			t.Fatalf("%s: stats.Requests = %d", label, stats.Requests)
		}
		if wantChunks := (n + ChunkRequests - 1) / ChunkRequests; stats.Chunks != uint64(wantChunks) {
			t.Fatalf("%s: %d chunks, want %d", label, stats.Chunks, wantChunks)
		}
	}
}

// A decode failure in the source must surface through Err, not truncate
// the stream silently, even when it falls exactly on a chunk boundary.
func TestStreamPropagatesDecodeError(t *testing.T) {
	var text strings.Builder
	for i := 0; i < ChunkRequests; i++ {
		fmt.Fprintf(&text, "%d R %d 1\n", 10*(i+1), i)
	}
	text.WriteString("this is not a trace line\n30 R 7 1\n")
	st := NewStream(NewTextReader(strings.NewReader(text.String())), StreamOptions{})
	if got := Collect(st); len(got) != ChunkRequests {
		t.Fatalf("decoded %d requests before the corrupt line, want %d", len(got), ChunkRequests)
	}
	if st.Err() == nil {
		t.Fatal("corrupt input not reported")
	}
	if want := fmt.Sprintf("line %d", ChunkRequests+1); !strings.Contains(st.Err().Error(), want) {
		t.Fatalf("error does not locate the corrupt line (%s): %v", want, st.Err())
	}
}

// A clean end reports no error.
func TestStreamCleanEndNoError(t *testing.T) {
	st := NewStream(&SliceSource{Reqs: []Request{{At: 1, Op: OpRead, LPN: 1, Pages: 1}}}, StreamOptions{})
	Collect(st)
	if err := st.Err(); err != nil {
		t.Fatalf("clean end reported error: %v", err)
	}
	// Subsequent Next calls stay exhausted.
	if _, ok := st.Next(); ok {
		t.Fatal("exhausted stream yielded")
	}
}

// Close must release the decode goroutine even when the stream is
// abandoned mid-flight, and must be safe to call repeatedly: after a
// few requests, and after each number of whole chunks, so that the
// consumer holds from none to all but one of a batch of spent buffers.
func TestStreamCloseMidFlight(t *testing.T) {
	for _, consumed := range []int{5, ChunkRequests, 2 * ChunkRequests, 3*ChunkRequests + 1, 5 * ChunkRequests} {
		g, err := NewGenerator(streamSpec())
		if err != nil {
			t.Fatal(err)
		}
		st := NewStream(g, StreamOptions{})
		for i := 0; i < consumed; i++ {
			if _, ok := st.Next(); !ok {
				t.Fatal("stream ended early")
			}
		}
		st.Close()
		st.Close() // idempotent
		if _, ok := <-st.out; ok {
			t.Fatalf("after %d requests: the producer outlived Close", consumed)
		}
		if _, ok := st.Next(); ok {
			t.Fatalf("after %d requests: a closed stream yielded", consumed)
		}
	}
}

// pacedSource sleeps before every ChunkRequests-th request of src, a
// producer slower than any consumer.
type pacedSource struct {
	src Source
	n   int
}

func (p *pacedSource) Next() (Request, bool) {
	if p.n%ChunkRequests == 0 {
		time.Sleep(200 * time.Microsecond)
	}
	p.n++
	return p.src.Next()
}

// The consumer holds up to ChunkDepth-2 spent buffers between batches.
// That never starves the producer into a deadlock, whether it is faster
// than the consumer (which sleeps at every chunk) or slower, and
// whatever the number of chunks in the stream; each buffer goes back
// to the pool once.
func TestStreamSpentBuffersNeverDeadlock(t *testing.T) {
	g, err := NewGenerator(streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	all := Collect(g)
	for _, slowProducer := range []bool{false, true} {
		for chunks := 1; chunks <= 2*(ChunkDepth+2); chunks++ {
			takePool()
			want := all[:min(len(all), chunks*ChunkRequests-1)]
			var src Source = &SliceSource{Reqs: want}
			if slowProducer {
				src = &pacedSource{src: src}
			}
			done := make(chan []Request)
			go func() {
				st := NewStream(src, StreamOptions{})
				var got []Request
				for {
					r, ok := st.Next()
					if !ok {
						break
					}
					if !slowProducer && len(got)%ChunkRequests == 0 {
						time.Sleep(200 * time.Microsecond)
					}
					r.FPs = slices.Clone(r.FPs)
					got = append(got, r)
				}
				st.Close()
				done <- got
			}()
			select {
			case got := <-done:
				requestsEqual(t, got, want, fmt.Sprintf("slow producer %v, %d chunks", slowProducer, chunks))
			case <-time.After(20 * time.Second):
				t.Fatalf("slow producer %v, %d chunks: the stream deadlocked", slowProducer, chunks)
			}
			if n := len(takePool()); n != ChunkDepth+2 {
				t.Fatalf("slow producer %v, %d chunks: pool holds %d buffers, want %d", slowProducer, chunks, n, ChunkDepth+2)
			}
		}
	}
}

// The bounded-memory guarantee: reader-side live bytes depend on the
// ring's geometry, never on trace length. Replaying a >1M-request file
// must keep the peak reader-side live set under 16 MiB.
func TestStreamLargeFileBoundedMemory(t *testing.T) {
	spec := streamSpec()
	spec.Requests = 1_100_000
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "big.ctr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st, closer, err := OpenFile(path, OpenOptions{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	n := 0
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if n != spec.Requests {
		t.Fatalf("replayed %d requests, want %d", n, spec.Requests)
	}
	stats := st.Stats()
	if stats.PeakLiveBytes == 0 {
		t.Fatal("no live-byte accounting")
	}
	if stats.PeakLiveBytes > 16<<20 {
		t.Fatalf("peak reader-side live set = %d bytes, want <= 16 MiB", stats.PeakLiveBytes)
	}
	if live := st.liveBytes.Load(); live != 0 {
		t.Fatalf("%d live bytes after the stream drained", live)
	}
}

// longWrites yields n writes of pages pages each, request i's
// fingerprints numbered from i*pages, in one recycled buffer as the
// generators and decoders hand theirs out.
type longWrites struct {
	n, pages, i int
	fps         fpScratch
}

func (w *longWrites) Next() (Request, bool) {
	if w.i == w.n {
		return Request{}, false
	}
	r := Request{At: event.Time(w.i), Op: OpWrite, LPN: uint64(w.i * w.pages), Pages: w.pages, FPs: w.fps.take(w.pages)}
	for j := range r.FPs {
		r.FPs[j] = dedup.Fingerprint(w.i*w.pages + j)
	}
	w.i++
	return r, true
}

// The ring's byte bound. Long writes — 2 048 pages, which would make a
// full chunk 4 MiB of fingerprints — close each chunk at its fingerprint
// budget, and a write longer than the budget gets a chunk to itself, so
// the reader-side live set stays within (ChunkDepth+2) chunks of
// ChunkRequests headers and max(ChunkFingerprints, one request)
// fingerprints. Every fingerprint arrives intact although the source
// recycles its buffer, and a slab grown past the budget is not pooled.
func TestStreamLongWritesBoundedMemory(t *testing.T) {
	for _, c := range []struct{ n, pages, chunks int }{
		{4 * ChunkRequests, 2048, 4 * ChunkRequests / (ChunkFingerprints / 2048)},
		{16, ChunkFingerprints + ChunkFingerprints/2, 16},
	} {
		takePool()
		st := NewStream(&longWrites{n: c.n, pages: c.pages}, StreamOptions{})
		for i := 0; ; i++ {
			r, ok := st.Next()
			if !ok {
				if i != c.n {
					t.Fatalf("%d pages: %d requests, want %d", c.pages, i, c.n)
				}
				break
			}
			if r.Pages != c.pages || len(r.FPs) != c.pages || cap(r.FPs) != c.pages {
				t.Fatalf("%d pages: request %d has %d pages, %d fingerprints (cap %d)", c.pages, i, r.Pages, len(r.FPs), cap(r.FPs))
			}
			for j, fp := range r.FPs {
				if fp != dedup.Fingerprint(i*c.pages+j) {
					t.Fatalf("%d pages: request %d fingerprint %d = %d", c.pages, i, j, fp)
				}
			}
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		stats := st.Stats()
		if stats.Chunks != uint64(c.chunks) {
			t.Fatalf("%d pages: %d chunks, want %d", c.pages, stats.Chunks, c.chunks)
		}
		bound := int64(ChunkDepth+2) * (ChunkRequests*requestFootprint + int64(max(ChunkFingerprints, c.pages))*fingerprintBytes)
		t.Logf("%d pages: peak reader-side live set %d B, bound %d B", c.pages, stats.PeakLiveBytes, bound)
		if stats.PeakLiveBytes > bound {
			t.Fatalf("%d pages: peak reader-side live set = %d B, want <= %d", c.pages, stats.PeakLiveBytes, bound)
		}
		for _, k := range takePool() {
			if cap(k.slab) > ChunkFingerprints {
				t.Fatalf("%d pages: pooled a %d-fingerprint slab, budget %d", c.pages, cap(k.slab), ChunkFingerprints)
			}
		}
	}
}

// Stall accounting: a slow producer forces the consumer to wait, and
// every such wait is counted.
func TestStreamStatsAndStalls(t *testing.T) {
	reqs := make([]Request, 10*ChunkRequests)
	at := event.Time(0)
	for i := range reqs {
		at += 10
		reqs[i] = Request{At: at, Op: OpRead, LPN: uint64(i), Pages: 1}
	}
	st := NewStream(&SliceSource{Reqs: reqs}, StreamOptions{})
	Collect(st)
	stats := st.Stats()
	if stats.Requests != uint64(len(reqs)) {
		t.Fatalf("requests = %d", stats.Requests)
	}
	if stats.Chunks != 10 {
		t.Fatalf("chunks = %d, want 10", stats.Chunks)
	}
	// Headers only (no fingerprints): the peak live set is bounded by the
	// whole ring being full — ChunkDepth+2 chunks.
	if max := int64(ChunkDepth+2) * ChunkRequests * requestFootprint; stats.PeakLiveBytes > max {
		t.Fatalf("peak live bytes = %d, want <= %d", stats.PeakLiveBytes, max)
	}
	if r := stats.StallRatio(); r < 0 || r > 1 {
		t.Fatalf("stall ratio = %v", r)
	}
	if (StreamStats{}).StallRatio() != 0 {
		t.Fatal("zero stats should have zero stall ratio")
	}
}

// blockedEnd is a source whose one Next blocks until release is closed
// and then reports the end.
type blockedEnd struct{ release chan struct{} }

func (b blockedEnd) Next() (Request, bool) {
	<-b.release
	return Request{}, false
}

// A consumer that finds the ring empty and then receives the
// producer's close has waited for no chunk: that wait is not a stall.
// The release comes after the consumer is (very likely) waiting, so the
// wait ends in the close; each round repeats the race.
func TestStreamWaitForCloseIsNoStall(t *testing.T) {
	for round := 0; round < 3; round++ {
		src := blockedEnd{release: make(chan struct{})}
		st := NewStream(src, StreamOptions{})
		go func() {
			time.Sleep(10 * time.Millisecond)
			close(src.release)
		}()
		if _, ok := st.Next(); ok {
			t.Fatal("empty source yielded a request")
		}
		if s := st.Stats(); s.Stalls > s.Chunks {
			t.Fatalf("round %d: %d stalls for %d chunks", round, s.Stalls, s.Chunks)
		}
	}
}

// Steady-state handoff is allocation-free: once the ring is primed, a
// consumer Next performs zero allocations per request. (Name matches
// the CI alloc-guard pattern.)
func TestStreamAllocFreeHandoff(t *testing.T) {
	reqs := make([]Request, 250_000)
	at := event.Time(0)
	for i := range reqs {
		at += 10
		reqs[i] = Request{At: at, Op: OpRead, LPN: uint64(i % 1000), Pages: 1}
	}
	st := NewStream(&SliceSource{Reqs: reqs}, StreamOptions{})
	defer st.Close()
	// Prime the ring.
	for i := 0; i < 2*ChunkRequests; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatal("stream ended during priming")
		}
	}
	allocs := testing.AllocsPerRun(100_000, func() {
		if _, ok := st.Next(); !ok {
			t.Fatal("stream ran dry")
		}
	})
	if allocs > 0.01 {
		t.Fatalf("Next allocated %.4f objects/op in steady state, want 0", allocs)
	}
}

// Gzip traces stream byte-identically to their uncompressed originals.
func TestStreamGzipIdentity(t *testing.T) {
	g, err := NewGenerator(streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(g)

	var raw bytes.Buffer
	w, err := NewWriter(&raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	src, err := Open(bytes.NewReader(gzipBytes(t, raw.Bytes())), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := mustCollect(t, NewStream(src, StreamOptions{}))
	requestsEqual(t, got, want, "gzip stream")
}

// takePool empties the chunk pool and returns what it held.
func takePool() []*chunk {
	chunkPool.mu.Lock()
	defer chunkPool.mu.Unlock()
	b := chunkPool.free
	chunkPool.free = nil
	return b
}

// A stream hands its ring's buffers back to the pool exactly once —
// drained to its end and then closed twice, or abandoned mid-flight
// with the consumer holding from none to all but one of a batch of
// spent buffers — and clears them first, so the pool keeps no
// fingerprints reachable. Runs under -race in CI.
func TestStreamReturnsEachBufferOnce(t *testing.T) {
	for _, consumed := range []int{-1, 5, ChunkRequests + 1, 2*ChunkRequests + 1, 3*ChunkRequests + 1, 4 * ChunkRequests} {
		midFlight := consumed >= 0
		takePool()
		g, err := NewGenerator(streamSpec())
		if err != nil {
			t.Fatal(err)
		}
		st := NewStream(g, StreamOptions{})
		if midFlight {
			for i := 0; i < consumed; i++ {
				st.Next()
			}
		} else {
			mustCollect(t, st)
		}
		st.Close()
		st.Close()
		pooled := takePool()
		if len(pooled) != ChunkDepth+2 {
			t.Fatalf("consumed %d: pool holds %d buffers, want %d", consumed, len(pooled), ChunkDepth+2)
		}
		seen := make(map[*chunk]bool)
		for _, c := range pooled {
			b := c.reqs
			if len(b) != 0 || cap(b) != ChunkRequests || len(c.slab) != 0 {
				t.Fatalf("consumed %d: pooled buffer len %d cap %d, slab len %d", consumed, len(b), cap(b), len(c.slab))
			}
			if seen[c] {
				t.Fatalf("consumed %d: a buffer was returned twice", consumed)
			}
			seen[c] = true
			for i, r := range b[:cap(b)] {
				if r.At != 0 || r.LPN != 0 || r.Pages != 0 || r.FPs != nil {
					t.Fatalf("consumed %d: pooled buffer slot %d not cleared: %+v", consumed, i, r)
				}
			}
		}
		// The next stream draws its ring from the pool.
		for _, b := range pooled {
			putChunk(b)
		}
		st2 := NewStream(&SliceSource{}, StreamOptions{})
		if n := len(takePool()); n != 0 {
			t.Fatalf("consumed %d: a new stream left %d pooled buffers unused", consumed, n)
		}
		st2.Close()
	}
}

// Streams on several goroutines at once — a fleet's workers — share the
// pool without handing one buffer to two rings: every stream delivers
// its source exactly, and afterwards the pool holds distinct buffers.
func TestStreamsShareThePoolConcurrently(t *testing.T) {
	takePool()
	g, err := NewGenerator(streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(g)
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				g, err := NewGenerator(streamSpec())
				if err != nil {
					t.Error(err)
					return
				}
				st := NewStream(g, StreamOptions{})
				got := Collect(st)
				st.Close()
				if len(got) != len(want) || got[len(got)-1].At != want[len(want)-1].At {
					t.Errorf("stream delivered %d requests, want %d", len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	pooled := takePool()
	if len(pooled) > workers*(ChunkDepth+2) {
		t.Fatalf("pool holds %d buffers, more than %d ever out at once", len(pooled), workers*(ChunkDepth+2))
	}
	seen := make(map[*chunk]bool)
	for _, c := range pooled {
		if seen[c] {
			t.Fatal("a buffer is in the pool twice")
		}
		seen[c] = true
	}
}

// Ahead's run-length rule: a known run shorter than AheadMinRequests
// stays on the consumer's goroutine; a long or unknown run gets a
// decode-ahead Stream. Either release is safe to call twice.
func TestAheadRunLengthRule(t *testing.T) {
	src := &SliceSource{}
	for _, c := range []struct {
		requests int
		ahead    bool
	}{
		{0, false},
		{AheadMinRequests - 1, false},
		{AheadMinRequests, true},
		{-1, true},
	} {
		got, release := Ahead(src, c.requests, StreamOptions{})
		if _, isStream := got.(*Stream); isStream != c.ahead {
			t.Fatalf("requests %d: ahead = %v, want %v", c.requests, isStream, c.ahead)
		}
		if !c.ahead && got != Source(src) {
			t.Fatalf("requests %d: short run was wrapped", c.requests)
		}
		release()
		release()
	}
}

type panicSource struct{ left int }

func (p *panicSource) Next() (Request, bool) {
	if p.left == 0 {
		panic("source bug")
	}
	p.left--
	return Request{At: 1, Op: OpRead, LPN: 1, Pages: 1}, true
}

// A source that panics on the producer goroutine fails the stream with
// an error instead of taking the process down; the chunks produced
// before the panic are still delivered.
func TestStreamSourcePanicFailsStream(t *testing.T) {
	st := NewStream(&panicSource{left: 2*ChunkRequests + 10}, StreamOptions{})
	defer st.Close()
	if got := Collect(st); len(got) != 2*ChunkRequests {
		t.Fatalf("delivered %d requests before the panic, want the %d of two full chunks", len(got), 2*ChunkRequests)
	}
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), "source bug") {
		t.Fatalf("Err() = %v, want the source's panic", err)
	}
}
