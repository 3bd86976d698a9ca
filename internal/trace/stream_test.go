package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cagc/internal/event"
)

// streamSpec is the reference workload the stream tests replay; large
// enough to cross many chunk boundaries at every tested chunk size.
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

// The streaming contract: a Stream yields exactly its source's requests
// at any chunk size and depth, with decode-ahead on or off.
func TestStreamByteIdentityAcrossChunkSizes(t *testing.T) {
	g, err := NewGenerator(streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(g)
	for _, opts := range []StreamOptions{
		{ChunkRequests: 1},
		{ChunkRequests: 1, Depth: 1},
		{ChunkRequests: 64},
		{ChunkRequests: 64, Depth: 16},
		{ChunkRequests: 4096},
		{}, // defaults
		{Sync: true},
		{ChunkRequests: 1, Sync: true},
		{ChunkRequests: 4096, Sync: true},
	} {
		g, err := NewGenerator(streamSpec())
		if err != nil {
			t.Fatal(err)
		}
		st := NewStream(g, opts)
		got := mustCollect(t, st)
		requestsEqual(t, got, want, "stream "+formatOpts(opts))
		stats := st.Stats()
		if stats.Requests != uint64(len(want)) {
			t.Fatalf("%s: stats.Requests = %d, want %d", formatOpts(opts), stats.Requests, len(want))
		}
		if stats.Chunks == 0 {
			t.Fatalf("%s: no chunks counted", formatOpts(opts))
		}
	}
}

func formatOpts(o StreamOptions) string {
	return fmt.Sprintf("sync=%v,chunk=%d,depth=%d", o.Sync, o.ChunkRequests, o.Depth)
}

// A decode failure in the source must surface through Err, not truncate
// the stream silently — in both decode-ahead and sync modes.
func TestStreamPropagatesDecodeError(t *testing.T) {
	const corrupt = "10 R 5 1\n20 R 6 1\nthis is not a trace line\n30 R 7 1\n"
	for _, sync := range []bool{false, true} {
		tr := NewTextReader(strings.NewReader(corrupt))
		st := NewStream(tr, StreamOptions{ChunkRequests: 1, Sync: sync})
		got := Collect(st)
		if len(got) != 2 {
			t.Fatalf("sync=%v: decoded %d requests before the corrupt line, want 2", sync, len(got))
		}
		if st.Err() == nil {
			t.Fatalf("sync=%v: corrupt input not reported", sync)
		}
		if !strings.Contains(st.Err().Error(), "line 3") {
			t.Fatalf("sync=%v: error does not locate the corrupt line: %v", sync, st.Err())
		}
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
// abandoned mid-flight, and must be safe to call repeatedly.
func TestStreamCloseMidFlight(t *testing.T) {
	g, err := NewGenerator(streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := NewStream(g, StreamOptions{ChunkRequests: 8, Depth: 2})
	for i := 0; i < 5; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	st.Close()
	st.Close() // idempotent
	// Sync streams have no goroutine; Close is still safe.
	st2 := NewStream(&SliceSource{}, StreamOptions{Sync: true})
	st2.Close()
}

// The bounded-memory guarantee: reader-side live bytes depend on chunk
// size and depth, never on trace length. Replaying a >1M-request file
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
	if stats.LiveBytes < 0 {
		t.Fatalf("live bytes went negative: %d", stats.LiveBytes)
	}
}

// Stall accounting: a slow producer forces the consumer to wait, and
// every such wait is counted.
func TestStreamStatsAndStalls(t *testing.T) {
	reqs := make([]Request, 1000)
	at := event.Time(0)
	for i := range reqs {
		at += 10
		reqs[i] = Request{At: at, Op: OpRead, LPN: uint64(i), Pages: 1}
	}
	st := NewStream(&SliceSource{Reqs: reqs}, StreamOptions{ChunkRequests: 100, Depth: 2})
	Collect(st)
	stats := st.Stats()
	if stats.Requests != 1000 {
		t.Fatalf("requests = %d", stats.Requests)
	}
	if stats.Chunks != 10 {
		t.Fatalf("chunks = %d, want 10", stats.Chunks)
	}
	// Headers only (no fingerprints): the peak live set is bounded by the
	// whole ring being full — (depth+2) chunks of 100 requests.
	if max := int64(4) * 100 * requestFootprint; stats.PeakLiveBytes > max {
		t.Fatalf("peak live bytes = %d, want <= %d", stats.PeakLiveBytes, max)
	}
	if r := stats.StallRatio(); r < 0 || r > 1 {
		t.Fatalf("stall ratio = %v", r)
	}
	if (StreamStats{}).StallRatio() != 0 {
		t.Fatal("zero stats should have zero stall ratio")
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
	for i := 0; i < 2*DefaultChunkRequests; i++ {
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

// The sync-mode stream must also be allocation-free at the handoff
// layer (the source itself may allocate; SliceSource does not).
func TestStreamSyncAllocFree(t *testing.T) {
	reqs := make([]Request, 120_000)
	at := event.Time(0)
	for i := range reqs {
		at += 10
		reqs[i] = Request{At: at, Op: OpRead, LPN: uint64(i), Pages: 1}
	}
	st := NewStream(&SliceSource{Reqs: reqs}, StreamOptions{Sync: true})
	allocs := testing.AllocsPerRun(100_000, func() {
		if _, ok := st.Next(); !ok {
			t.Fatal("stream ran dry")
		}
	})
	if allocs > 0.01 {
		t.Fatalf("sync Next allocated %.4f objects/op, want 0", allocs)
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
	got := mustCollect(t, NewStream(src, StreamOptions{ChunkRequests: 64}))
	requestsEqual(t, got, want, "gzip stream")
}

// takePool empties the chunk pool and returns what it held.
func takePool() [][]Request {
	chunkPool.mu.Lock()
	defer chunkPool.mu.Unlock()
	b := chunkPool.free
	chunkPool.free = nil
	return b
}

// A stream hands its ring's buffers back to the pool exactly once —
// drained to its end and then closed twice, or abandoned mid-flight —
// and clears them first, so the pool keeps no fingerprints reachable.
// Runs under -race in CI.
func TestStreamReturnsEachBufferOnce(t *testing.T) {
	for _, midFlight := range []bool{false, true} {
		takePool()
		g, err := NewGenerator(streamSpec())
		if err != nil {
			t.Fatal(err)
		}
		st := NewStream(g, StreamOptions{})
		if midFlight {
			for i := 0; i < 5; i++ {
				st.Next()
			}
		} else {
			mustCollect(t, st)
		}
		st.Close()
		st.Close()
		pooled := takePool()
		if len(pooled) != DefaultChunkDepth+2 {
			t.Fatalf("midFlight=%v: pool holds %d buffers, want %d", midFlight, len(pooled), DefaultChunkDepth+2)
		}
		seen := make(map[*Request]bool)
		for _, b := range pooled {
			if len(b) != 0 || cap(b) != DefaultChunkRequests {
				t.Fatalf("midFlight=%v: pooled buffer len %d cap %d", midFlight, len(b), cap(b))
			}
			first := &b[:1][0]
			if seen[first] {
				t.Fatalf("midFlight=%v: a buffer was returned twice", midFlight)
			}
			seen[first] = true
			for i, r := range b[:cap(b)] {
				if r.At != 0 || r.LPN != 0 || r.Pages != 0 || r.FPs != nil {
					t.Fatalf("midFlight=%v: pooled buffer slot %d not cleared: %+v", midFlight, i, r)
				}
			}
		}
		// The next stream draws its ring from the pool.
		for _, b := range pooled {
			putChunk(b)
		}
		st2 := NewStream(&SliceSource{}, StreamOptions{})
		if n := len(takePool()); n != 0 {
			t.Fatalf("midFlight=%v: a new stream left %d pooled buffers unused", midFlight, n)
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
	if len(pooled) > workers*(DefaultChunkDepth+2) {
		t.Fatalf("pool holds %d buffers, more than %d ever out at once", len(pooled), workers*(DefaultChunkDepth+2))
	}
	seen := make(map[*Request]bool)
	for _, b := range pooled {
		first := &b[:1][0]
		if seen[first] {
			t.Fatal("a buffer is in the pool twice")
		}
		seen[first] = true
	}
}

// Ahead's run-length rule: a known run shorter than AheadMinRequests, or
// a Sync request, stays on the consumer's goroutine; a long or unknown
// run gets a decode-ahead Stream. Either release is safe to call twice.
func TestAheadRunLengthRule(t *testing.T) {
	src := &SliceSource{}
	for _, c := range []struct {
		requests int
		opts     StreamOptions
		ahead    bool
	}{
		{0, StreamOptions{}, false},
		{AheadMinRequests - 1, StreamOptions{}, false},
		{AheadMinRequests, StreamOptions{}, true},
		{-1, StreamOptions{}, true},
		{AheadMinRequests, StreamOptions{Sync: true}, false},
	} {
		got, release := Ahead(src, c.requests, c.opts)
		if _, isStream := got.(*Stream); isStream != c.ahead {
			t.Fatalf("requests %d sync %v: ahead = %v, want %v", c.requests, c.opts.Sync, isStream, c.ahead)
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
	st := NewStream(&panicSource{left: 10}, StreamOptions{ChunkRequests: 4})
	defer st.Close()
	if got := Collect(st); len(got) != 8 {
		t.Fatalf("delivered %d requests before the panic, want the 8 of two full chunks", len(got))
	}
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), "source bug") {
		t.Fatalf("Err() = %v, want the source's panic", err)
	}
}
