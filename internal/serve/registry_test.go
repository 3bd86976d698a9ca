package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cagc"
)

// smallSpec is a 50-request run: quick, and its document depends on
// its seed.
func smallSpec(seed int64) JobSpec {
	return JobSpec{Params: cagc.Params{Requests: 50, Seed: seed}}
}

// submitWait submits spec and waits for the job to finish.
func submitWait(t *testing.T, s *Server, spec JobSpec) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
	if st := j.State(); st.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", j.ID, st.Status, st.Err)
	}
	return j
}

// The registry keeps the last N finished jobs. Of 3N+5 finished jobs,
// the newest N answer status and result, the older ones answer 410 Gone,
// and an ID never issued stays 404.
func TestServeRegistryKeepsLastFinished(t *testing.T) {
	s := New(Options{QueueDepth: 4, Workers: 2, CacheEntries: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	n := s.finished.max
	if n != 16 {
		t.Fatalf("registry keeps %d finished jobs, want CacheEntries = 16", n)
	}

	var jobs []*Job
	for seed := int64(1); seed <= int64(3*n+5); seed++ {
		jobs = append(jobs, submitWait(t, s, smallSpec(seed)))
	}
	if got := len(s.Jobs()); got != n {
		t.Fatalf("registry retains %d jobs, want %d", got, n)
	}
	if m := s.MetricsSnapshot(); m.Retained != n || m.Expired != uint64(2*n+5) {
		t.Fatalf("retained %d, expired %d; want %d and %d", m.Retained, m.Expired, n, 2*n+5)
	}
	for i, j := range jobs {
		path := "/v1/jobs/" + j.ID
		if i < len(jobs)-n {
			for _, p := range []string{path, path + "/result", path + "/summary"} {
				if body, code := getBody(t, ts, p); code != http.StatusGone || !bytes.Contains(body, []byte("resubmit")) {
					t.Fatalf("%s: %d %s, want 410 telling the client to resubmit", p, code, body)
				}
			}
			continue
		}
		if _, code := getBody(t, ts, path); code != http.StatusOK {
			t.Fatalf("%s: %d, want 200", path, code)
		}
		if body, code := getBody(t, ts, path+"/result"); code != http.StatusOK || !bytes.Equal(body, j.State().Body) {
			t.Fatalf("%s/result: %d", path, code)
		}
	}
	// The retained jobs list in submission order.
	for i, j := range s.Jobs() {
		if want := jobs[len(jobs)-n+i]; j != want {
			t.Fatalf("Jobs()[%d] = %s, want %s", i, j.ID, want.ID)
		}
	}
	for _, id := range []string{jobID(uint64(len(jobs) + 1)), "j-0", "j-1", "j-0000001", "x-000001"} {
		if _, code := getBody(t, ts, "/v1/jobs/"+id); code != http.StatusNotFound {
			t.Fatalf("never-issued %s: %d, want 404", id, code)
		}
	}
}

// Resubmitting an expired job's configuration answers its bytes: from
// the result cache while the configuration is cached (cache hits are
// finished jobs too, so they push the original out of the registry).
func TestServeExpiredJobResubmits(t *testing.T) {
	s := New(Options{QueueDepth: 2, Workers: 1, CacheEntries: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := submitWait(t, s, smallSpec(1))
	want := first.State().Body
	for i := 0; i < s.finished.max; i++ {
		if j := submitWait(t, s, smallSpec(1)); !j.State().Cached {
			t.Fatalf("repeat %d not served from the cache", i)
		}
	}
	if _, code := getBody(t, ts, "/v1/jobs/"+first.ID); code != http.StatusGone {
		t.Fatalf("original job: %d, want 410", code)
	}
	st, code := postJob(t, ts, smallSpec(1))
	if code != http.StatusOK || !st.Cached {
		t.Fatalf("resubmission: %d cached %v, want 200 from the cache", code, st.Cached)
	}
	if got, _ := getBody(t, ts, "/v1/jobs/"+st.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatal("resubmission answers different bytes")
	}
}

// A queued or running job is never evicted, however many jobs finish
// around it, so Shutdown still finds every live job to cancel.
func TestServeRegistryNeverEvictsLiveJobs(t *testing.T) {
	var hold atomic.Bool
	release := make(chan struct{})
	s := New(Options{QueueDepth: 2, Workers: 1, CacheEntries: 1})
	s.beforeExec = func() {
		if hold.Load() {
			<-release
		}
	}
	defer s.Shutdown(context.Background())
	unhold := sync.OnceFunc(func() { close(release) })
	defer unhold()      // before Shutdown, which waits for the held worker
	n := s.finished.max // QueueDepth + Workers

	submitWait(t, s, smallSpec(1)) // cached from here on
	hold.Store(true)
	var live []*Job
	for seed := int64(2); len(live) < n; seed++ {
		j, err := s.Submit(smallSpec(seed))
		if err == ErrBusy {
			time.Sleep(time.Millisecond) // the worker has not dequeued yet
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, j)
	}
	if _, err := s.Submit(smallSpec(100)); err != ErrBusy {
		t.Fatalf("queue not full: %v", err)
	}
	for i := 0; i < 3*n+5; i++ {
		if j := submitWait(t, s, smallSpec(1)); !j.State().Cached {
			t.Fatal("repeat not served from the cache")
		}
	}
	if got := len(s.Jobs()); got != len(live)+n {
		t.Fatalf("registry holds %d jobs, want %d live + %d finished", got, len(live), n)
	}
	for _, j := range live {
		if got, ok := s.Get(j.ID); !ok || got != j {
			t.Fatalf("live job %s evicted", j.ID)
		}
	}
	unhold()
	for _, j := range live {
		<-j.done
	}
	if got := len(s.Jobs()); got != n {
		t.Fatalf("registry holds %d jobs after the live ones finished, want %d", got, n)
	}
}

// The registry's memory stops growing once it is full: the live heap
// after 3N finished jobs is within 256 KiB of the heap after N. (An
// unbounded registry grows by about two documents and summaries, some
// 6 KB, per job.)
func TestServeRegistryHeapIsFlat(t *testing.T) {
	s := New(Options{QueueDepth: 4, Workers: 2})
	defer s.Shutdown(context.Background())
	n := s.finished.max
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	seed := int64(1)
	submit := func(count int) {
		for i := 0; i < count; i++ {
			submitWait(t, s, smallSpec(seed))
			seed++
		}
	}
	submit(n)
	before := heap()
	submit(2 * n)
	after := heap()
	t.Logf("N = %d: heap %d B after N jobs, %d B after 3N", n, before, after)
	if after > before+256<<10 {
		t.Fatalf("heap grew by %d B from N to 3N finished jobs, bound 256 KiB", after-before)
	}
}

// A traced job's recording is kept only while it is among the last
// tracedRetained finished traced jobs. Finishing one more releases the
// oldest recording (its trace answers 410) while the job's status and
// result stay available.
func TestServeReleasesOldTraceRecordings(t *testing.T) {
	s := New(Options{QueueDepth: 2, Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	traced := func(seed int64) *Job {
		spec := smallSpec(seed)
		spec.Trace = true
		return submitWait(t, s, spec)
	}
	first := traced(1)
	var released atomic.Bool
	runtime.SetFinalizer(first.Recorder(), func(*cagc.TraceRecorder) { released.Store(true) })
	for seed := int64(2); seed <= tracedRetained; seed++ {
		traced(seed)
	}
	if _, code := getBody(t, ts, "/v1/jobs/"+first.ID+"/trace"); code != http.StatusOK {
		t.Fatalf("trace of the oldest of %d traced jobs: %d, want 200", tracedRetained, code)
	}
	traced(tracedRetained + 1)

	if first.Recorder() != nil {
		t.Fatal("the ninth traced job did not release the first recording")
	}
	if got := len(s.traced.jobs); got != tracedRetained {
		t.Fatalf("%d recordings kept, want %d", got, tracedRetained)
	}
	path := "/v1/jobs/" + first.ID
	if _, code := getBody(t, ts, path+"/trace"); code != http.StatusGone {
		t.Fatalf("released trace: %d, want 410", code)
	}
	if st, code := getBody(t, ts, path); code != http.StatusOK || !bytes.Contains(st, []byte(`"traced": true`)) {
		t.Fatalf("status after release: %d %s", code, st)
	}
	if _, code := getBody(t, ts, path+"/result"); code != http.StatusOK {
		t.Fatalf("result after release: %d", code)
	}
	for i := 0; i < 100 && !released.Load(); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !released.Load() {
		t.Fatalf("the first recording is still reachable after %d traced jobs", tracedRetained+1)
	}
}

// Submitters, finishing jobs and readers share the registry: run under
// -race. However the jobs interleave, the registry ends holding exactly
// the last N finished, and every other job is counted as expired.
func TestServeRegistryConcurrent(t *testing.T) {
	s := New(Options{QueueDepth: 4, Workers: 2, CacheEntries: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	n := s.finished.max

	const submitters, each = 4, 12
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // a reader racing the evictions
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, j := range s.Jobs() {
				j.State()
				j.Recorder()
			}
			s.MetricsSnapshot()
		}
	}()
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				spec := smallSpec(int64(1 + (g*each+i)%7)) // repeats are cache hits
				spec.Trace = i%3 == 0
				for {
					j, err := s.Submit(spec)
					if err == ErrBusy {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					<-j.done
					if code := getStatus(ts, "/v1/jobs/"+j.ID); code != http.StatusOK && code != http.StatusGone {
						t.Errorf("%s: %d", j.ID, code)
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	m := s.MetricsSnapshot()
	if m.Retained != n || m.Expired != uint64(submitters*each-n) {
		t.Fatalf("retained %d, expired %d; want %d and %d", m.Retained, m.Expired, n, submitters*each-n)
	}
	if got := len(s.traced.jobs); got > tracedRetained {
		t.Fatalf("%d recordings kept, bound %d", got, tracedRetained)
	}
}

// getStatus is getBody for a goroutine other than the test's own: it
// reports a failed request as status 0 instead of failing the test.
func getStatus(ts *httptest.Server, path string) int {
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}
