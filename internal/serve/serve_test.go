package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cagc"
	"cagc/internal/sim"
)

// testParams is the shared small configuration: big enough to exercise
// GC, small enough that a run takes tens of milliseconds.
func testParams(seed int64) cagc.Params {
	return cagc.Params{DeviceBytes: 16 << 20, Requests: 2000, Seed: seed}
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (jobStatus, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func waitDone(t *testing.T, s *Server, id string) JobState {
	t.Helper()
	j, ok := s.Get(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	return j.State()
}

func getBody(t *testing.T, ts *httptest.Server, path string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.StatusCode
}

// A run job's result document is byte-identical to rendering the same
// configuration directly (the CLI's -json output), and a repeated
// submission is answered from the cache with the same bytes.
func TestServeRunByteIdentityAndCacheHit(t *testing.T) {
	s := New(Options{QueueDepth: 4, Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	p := testParams(7)
	spec := JobSpec{Kind: KindRun, Workload: "mail", Params: p}

	st, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", code)
	}
	if st.Cached {
		t.Fatal("first submission claims cached")
	}
	fin := waitDone(t, s, st.ID)
	if fin.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", st.ID, fin.Status, fin.Err)
	}
	got, code := getBody(t, ts, "/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}

	// Reference render: same API surface the CLI uses.
	res, err := cagc.Run(cagc.Mail, cagc.CAGC, "greedy", p)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := cagc.WriteJSONKey(&want, res, cagc.ConfigKey(cagc.Mail, cagc.CAGC, "greedy", p)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("service document differs from direct render:\n--- serve ---\n%s\n--- direct ---\n%s", got, want.Bytes())
	}

	// Second submission: cache hit, HTTP 200, byte-identical document.
	st2, code := postJob(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("repeat submit: status %d, want 200", code)
	}
	if !st2.Cached {
		t.Fatal("repeat submission not served from cache")
	}
	got2, _ := getBody(t, ts, "/v1/jobs/"+st2.ID+"/result")
	if !bytes.Equal(got, got2) {
		t.Fatal("cached document differs from original")
	}
	if cs := s.cache.stats(); cs.Hits != 1 {
		t.Fatalf("cache stats after repeat: %+v", cs)
	}
}

// A full queue refuses with ErrBusy (HTTP 429 + Retry-After) and the
// refused job never executes.
func TestServeOverflowRejects(t *testing.T) {
	s := New(Options{QueueDepth: 1, Workers: 1})
	gate := make(chan struct{})
	s.beforeExec = func() { <-gate }
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Wedge the single worker, fill the one buffered slot.
	a, code := postJob(t, ts, JobSpec{Params: testParams(1)})
	if code != http.StatusAccepted {
		t.Fatalf("submit a: %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the wedged job")
		}
		time.Sleep(time.Millisecond)
	}
	b, code := postJob(t, ts, JobSpec{Params: testParams(2)})
	if code != http.StatusAccepted {
		t.Fatalf("submit b: %d", code)
	}

	// Queue is now full: worker wedged on a, b buffered.
	body, err := json.Marshal(JobSpec{Params: testParams(3)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	qs := s.queue.Stats()
	if qs.Rejected != 1 || qs.Admitted != 2 {
		t.Fatalf("queue stats after overflow: %+v", qs)
	}

	close(gate)
	for _, id := range []string{a.ID, b.ID} {
		if fin := waitDone(t, s, id); fin.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, fin.Status, fin.Err)
		}
	}
	// The rejected spec never ran: only two jobs exist, two executed.
	if got := len(s.Jobs()); got != 2 {
		t.Fatalf("%d jobs registered, want 2", got)
	}
	// A job signals done from inside its queue slot; the queue counts it
	// when the slot returns, a moment later.
	deadline = time.Now().Add(5 * time.Second)
	for s.queue.Stats().Done != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue done %d, want 2", s.queue.Stats().Done)
		}
		time.Sleep(time.Millisecond)
	}
}

// A job with a tiny deadline times out cleanly: timeout status, the
// queue slot is freed, and the warm registry and clone gauge are back
// at their pre-job values (no leaked snapshot, no leaked clone).
func TestServeDeadlineTimesOutAndFreesResources(t *testing.T) {
	s := New(Options{QueueDepth: 4, Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Build the warm snapshot with a clean run of the same device shape.
	warm, code := postJob(t, ts, JobSpec{Params: testParams(1)})
	if code != http.StatusAccepted {
		t.Fatalf("warmup submit: %d", code)
	}
	if fin := waitDone(t, s, warm.ID); fin.Status != StatusDone {
		t.Fatalf("warmup: %s (%s)", fin.Status, fin.Err)
	}

	preClones := sim.CloneGaugeStats().Live
	preSnaps := cagc.WarmCacheStats().Snapshots

	// Same device shape (shares the snapshot), long replay, 1 ms budget.
	p := testParams(2)
	p.Requests = 200000
	st, code := postJob(t, ts, JobSpec{Params: p, TimeoutMs: 1})
	if code != http.StatusAccepted {
		t.Fatalf("deadline submit: %d", code)
	}
	fin := waitDone(t, s, st.ID)
	if fin.Status != StatusTimeout {
		t.Fatalf("deadline job: status %s (err %q), want timeout", fin.Status, fin.Err)
	}
	if !strings.Contains(fin.Err, "deadline") {
		t.Fatalf("timeout error %q does not mention the deadline", fin.Err)
	}

	if live := sim.CloneGaugeStats().Live; live != preClones {
		t.Fatalf("clone gauge leaked: live %d, want %d", live, preClones)
	}
	if snaps := cagc.WarmCacheStats().Snapshots; snaps != preSnaps {
		t.Fatalf("warm registry changed: %d snapshots, want %d", snaps, preSnaps)
	}
	// Result and trace surfaces refuse, status carries the error.
	if _, code := getBody(t, ts, "/v1/jobs/"+st.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("result of timed-out job: status %d, want 409", code)
	}

	// The slot is free: the next job runs to completion.
	after, code := postJob(t, ts, JobSpec{Params: testParams(3)})
	if code != http.StatusAccepted {
		t.Fatalf("post-timeout submit: %d", code)
	}
	if fin := waitDone(t, s, after.ID); fin.Status != StatusDone {
		t.Fatalf("post-timeout job: %s (%s)", fin.Status, fin.Err)
	}
}

// A job that panics fails alone: it is marked failed with the panic as
// its error and counted, its queue slot comes back (one worker, one
// slot, so a leak would wedge the queue), and the next job completes.
func TestServeSurvivesPanickingJob(t *testing.T) {
	s := New(Options{QueueDepth: 1, Workers: 1})
	var armed atomic.Bool
	armed.Store(true)
	s.beforeExec = func() {
		if armed.CompareAndSwap(true, false) {
			panic("job bug")
		}
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad, code := postJob(t, ts, JobSpec{Params: testParams(1)})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	fin := waitDone(t, s, bad.ID)
	if fin.Status != StatusFailed || !strings.Contains(fin.Err, "job bug") {
		t.Fatalf("panicking job: status %s (err %q), want failed naming the panic", fin.Status, fin.Err)
	}
	if n := s.MetricsSnapshot().Jobs[StatusFailed]; n != 1 {
		t.Fatalf("%d failed jobs counted, want 1", n)
	}
	good, code := postJob(t, ts, JobSpec{Params: testParams(1)})
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit: %d (a failed job must not be cached)", code)
	}
	if fin := waitDone(t, s, good.ID); fin.Status != StatusDone {
		t.Fatalf("post-panic job: %s (%s)", fin.Status, fin.Err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for qs := s.queue.Stats(); qs.Done != 2 || qs.Running != 0; qs = s.queue.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("queue after the panic: %+v, want 2 done, 0 running", qs)
		}
		time.Sleep(time.Millisecond)
	}
}

// A sweep and the equivalent explicit batch share one cache identity,
// and the batch document is the per-seed concatenation of run documents.
func TestServeBatchSweepSharedIdentity(t *testing.T) {
	s := New(Options{QueueDepth: 4, Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	p := testParams(0) // seed 0: sweep bases at 1
	batch, code := postJob(t, ts, JobSpec{Kind: KindBatch, Params: p, Seeds: []int64{1, 2, 3}})
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: %d", code)
	}
	fin := waitDone(t, s, batch.ID)
	if fin.Status != StatusDone {
		t.Fatalf("batch: %s (%s)", fin.Status, fin.Err)
	}
	got, _ := getBody(t, ts, "/v1/jobs/"+batch.ID+"/result")

	var want bytes.Buffer
	for seed := int64(1); seed <= 3; seed++ {
		q := p
		q.Seed = seed
		res, err := cagc.Run(cagc.Mail, cagc.CAGC, "greedy", q)
		if err != nil {
			t.Fatal(err)
		}
		if err := cagc.WriteJSONKey(&want, res, cagc.ConfigKey(cagc.Mail, cagc.CAGC, "greedy", q)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("batch document is not the per-seed concatenation of run documents")
	}

	// The equivalent sweep is the same job: served from cache.
	sweep, code := postJob(t, ts, JobSpec{Kind: KindSweep, Params: p, Count: 3})
	if code != http.StatusOK {
		t.Fatalf("sweep submit: status %d, want 200 (cache hit)", code)
	}
	if !sweep.Cached || sweep.ConfigKey != batch.ConfigKey {
		t.Fatalf("sweep not answered from the batch's cache entry: %+v vs %+v", sweep, batch)
	}
}

// Validation failures are 400s and never reach the queue.
func TestServeValidation(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []string{
		`{"kind":"nope"}`,
		`{"workload":"postgres"}`,
		`{"scheme":"raid5"}`,
		`{"policy":"psychic"}`,
		`{"params":{"Sched":"heap"}}`, // retired field: unknown, so a 400
		`{"kind":"batch"}`,
		`{"kind":"sweep"}`,
		`{"kind":"fleet"}`,
		`{"kind":"batch","seeds":[1],"count":2}`,
		`{"timeout_ms":-5}`,
		`{"kind":"fleet","fleet":{"Devices":2},"trace":true}`,
		`{"unknown_field":1}`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if qs := s.queue.Stats(); qs.Admitted != 0 {
		t.Fatalf("invalid specs reached the queue: %+v", qs)
	}
}

// Traced jobs execute (even on a warm cache), expose a Chrome trace
// with serve-track events, and still populate the result cache.
func TestServeTrace(t *testing.T) {
	s := New(Options{QueueDepth: 4, Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	p := testParams(11)
	st, code := postJob(t, ts, JobSpec{Params: p, Trace: true})
	if code != http.StatusAccepted {
		t.Fatalf("traced submit: %d", code)
	}
	fin := waitDone(t, s, st.ID)
	if fin.Status != StatusDone || !fin.Traced {
		t.Fatalf("traced job: %+v", fin)
	}
	trace, code := getBody(t, ts, "/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace fetch: %d", code)
	}
	for _, want := range []string{`"serve"`, "serve.wait", "serve.job", "gc."} {
		if !bytes.Contains(trace, []byte(want)) {
			t.Errorf("trace missing %q", want)
		}
	}

	// The traced run populated the cache: an untraced repeat hits.
	rep, code := postJob(t, ts, JobSpec{Params: p})
	if code != http.StatusOK || !rep.Cached {
		t.Fatalf("repeat after traced run: status %d cached %v", code, rep.Cached)
	}
	// And the document matches a direct render byte for byte (tracing
	// never changes results).
	got, _ := getBody(t, ts, "/v1/jobs/"+st.ID+"/result")
	res, err := cagc.Run(cagc.Mail, cagc.CAGC, "greedy", p)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := cagc.WriteJSONKey(&want, res, cagc.ConfigKey(cagc.Mail, cagc.CAGC, "greedy", p)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("traced document differs from direct render")
	}
}

// Shutdown drains admitted jobs and refuses later submissions.
func TestServeShutdownDrains(t *testing.T) {
	s := New(Options{QueueDepth: 8, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		st, code := postJob(t, ts, JobSpec{Params: testParams(seed)})
		if code != http.StatusAccepted {
			t.Fatalf("submit seed %d: %d", seed, code)
		}
		ids = append(ids, st.ID)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range ids {
		j, _ := s.Get(id)
		if st := j.State(); st.Status != StatusDone {
			t.Fatalf("job %s after drain: %s (%s)", id, st.Status, st.Err)
		}
	}
	if _, err := s.Submit(JobSpec{Params: testParams(9)}); err != ErrClosed {
		t.Fatalf("submit after shutdown: %v, want ErrClosed", err)
	}
	// The HTTP layer maps it to 503.
	_, code := postJob(t, ts, JobSpec{Params: testParams(9)})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post after shutdown: status %d, want 503", code)
	}
}

// A fleet job's document matches RunFleet's JSON byte for byte and its
// identity ignores scheduling knobs (shard size).
func TestServeFleet(t *testing.T) {
	s := New(Options{QueueDepth: 4, Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	p := testParams(1)
	p.Requests = 500
	fp := cagc.FleetParams{Devices: 3}
	st, code := postJob(t, ts, JobSpec{Kind: KindFleet, Params: p, Fleet: &fp})
	if code != http.StatusAccepted {
		t.Fatalf("fleet submit: %d", code)
	}
	fin := waitDone(t, s, st.ID)
	if fin.Status != StatusDone {
		t.Fatalf("fleet: %s (%s)", fin.Status, fin.Err)
	}
	got, _ := getBody(t, ts, "/v1/jobs/"+st.ID+"/result")

	fr, err := cagc.RunFleet(cagc.Mail, cagc.CAGC, "greedy", p, fp)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := cagc.WriteFleetJSON(&want, fr.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("fleet document differs from direct render")
	}

	// Different shard size, same fleet: cache hit (scheduling excluded
	// from identity).
	fp2 := fp
	fp2.ShardSize = 2
	rep, code := postJob(t, ts, JobSpec{Kind: KindFleet, Params: p, Fleet: &fp2})
	if code != http.StatusOK || !rep.Cached {
		t.Fatalf("sharded resubmit: status %d cached %v", code, rep.Cached)
	}
}

// Metrics and catalog endpoints respond and carry the serving counters.
func TestServeMetricsAndCatalog(t *testing.T) {
	s := New(Options{QueueDepth: 4, Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _ := postJob(t, ts, JobSpec{Params: testParams(21)})
	waitDone(t, s, st.ID)
	postJob(t, ts, JobSpec{Params: testParams(21)}) // cache hit

	// The queue counts a job executed once its worker returns, which is
	// after the job's Done channel closes: wait for the counter.
	var metrics []byte
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var code int
		if metrics, code = getBody(t, ts, "/metrics"); code != http.StatusOK {
			t.Fatalf("metrics: %d", code)
		}
		if bytes.Contains(metrics, []byte("serve_jobs_executed_total 1")) || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{
		"serve_jobs_executed_total 1",
		"serve_cache_hits_total 1",
		"serve_queue_capacity 4",
		"serve_events_total",
		"warm_cache_snapshots",
		"sim_clones_live",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	catalog, code := getBody(t, ts, "/v1/catalog")
	if code != http.StatusOK {
		t.Fatalf("catalog: %d", code)
	}
	var cat struct {
		Kinds     []string `json:"kinds"`
		Workloads []string `json:"workloads"`
		Schemes   []string `json:"schemes"`
		Policies  []string `json:"policies"`
	}
	if err := json.Unmarshal(catalog, &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Kinds) != 4 || len(cat.Workloads) == 0 || len(cat.Schemes) == 0 ||
		len(cat.Policies) == 0 {
		t.Fatalf("catalog incomplete: %+v", cat)
	}

	// The service trace carries the admission telemetry.
	svcTrace, code := getBody(t, ts, "/v1/trace")
	if code != http.StatusOK {
		t.Fatalf("service trace: %d", code)
	}
	for _, want := range []string{"serve.job", "serve.cache_hit"} {
		if !bytes.Contains(svcTrace, []byte(want)) {
			t.Errorf("service trace missing %q", want)
		}
	}
}

// endlessSeeds streams a syntactically valid batch spec whose seed list
// never closes, counting the bytes the server pulled from it. It gives
// up far past the bound so an unbounded reader fails the test instead
// of hanging it.
type endlessSeeds struct{ read int }

func (e *endlessSeeds) Read(p []byte) (int, error) {
	const head = `{"kind":"batch","seeds":[1`
	if e.read > 8*maxJobSpecBytes {
		return 0, io.ErrUnexpectedEOF
	}
	for i := range p {
		switch {
		case e.read < len(head):
			p[i] = head[e.read]
		case (e.read-len(head))%2 == 0:
			p[i] = ','
		default:
			p[i] = '1'
		}
		e.read++
	}
	return len(p), nil
}

func (e *endlessSeeds) Close() error { return nil }

// The submission body is a trust boundary: a spec past the size bound
// is refused with a 413 and the JSON error body after at most the bound
// (plus the decoder's read-ahead) has been pulled — never buffered
// whole — and it neither occupies a queue slot nor leaves a job behind.
// Ordinary run, batch, sweep and fleet submissions pass through the
// same bounded reader in every other test of this file.
func TestServeBoundsSubmissionBody(t *testing.T) {
	s := New(Options{QueueDepth: 2, Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	body := &endlessSeeds{}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
	req.Body = body
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413; body %s", rec.Code, rec.Body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("413 body is not the JSON error document: %q (%v)", rec.Body, err)
	}
	if body.read > 2*maxJobSpecBytes {
		t.Errorf("server pulled %d bytes of an oversized body, bound is %d", body.read, maxJobSpecBytes)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("rejected submission left %d jobs behind", n)
	}
	if q := s.MetricsSnapshot().Queue; q.Depth != 0 || q.Admitted != 0 {
		t.Errorf("rejected submission touched the queue: %+v", q)
	}

	// A body just under the bound is judged on its content, not its
	// size (an unknown kind, so that nothing runs).
	var big bytes.Buffer
	big.WriteString(`{"kind":"nope","seeds":[1`)
	for big.Len() < maxJobSpecBytes-4 {
		big.WriteString(",1")
	}
	big.WriteString("]}")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", &big))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("a spec just under the %d-byte bound: status %d, want 400 for its unknown kind", maxJobSpecBytes, rec.Code)
	}
}
