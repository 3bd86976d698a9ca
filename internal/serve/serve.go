// Package serve is the simulation-as-a-service layer: a long-running
// job engine wrapping the cagc harness behind HTTP. Submissions (single
// run, batch, sweep, or fleet — the existing cagc.Params/FleetParams
// surfaces, as JSON) are admitted onto a bounded queue (backpressure:
// a full queue refuses immediately, the 429 path), executed with
// per-job deadlines plumbed through the simulator as contexts, and
// their rendered result documents cached in a bounded LRU keyed by the
// canonical cagc.ConfigKey identity — a repeated submission is answered
// byte-identically without re-running. Shutdown drains: admission
// stops, admitted jobs finish (or are cancelled when the drain deadline
// expires), then the workers exit.
//
// The job registry is bounded the same way: it keeps every queued or
// running job and the most recent finished ones (as many as the result
// cache holds documents), so the service's memory does not grow with
// its uptime. A forgotten job can always be recomputed — its document
// depends only on its configuration.
//
// The deterministic-document discipline is the same one the CLI
// follows: result bodies depend only on the job's configuration, never
// on worker counts, queue state, or wall clock; wall-clock facts live
// in job status fields and /metrics.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cagc"
	"cagc/internal/event"
	"cagc/internal/obs"
	"cagc/internal/pool"
	"cagc/internal/sim"
)

// Options configures a Server. The zero value serves with sensible
// defaults.
type Options struct {
	// QueueDepth bounds jobs admitted and not yet executing (default
	// 16). Submissions past the bound are refused (ErrBusy / HTTP 429).
	QueueDepth int
	// Workers is the number of jobs executing concurrently (default
	// GOMAXPROCS). Batch and fleet jobs parallelize internally on the
	// shared pool regardless.
	Workers int
	// CacheEntries bounds the result cache (default 128 documents) and
	// the finished jobs the registry keeps (at least QueueDepth +
	// Workers of them).
	CacheEntries int
	// DefaultTimeout bounds jobs that name no timeout_ms (0 = none).
	DefaultTimeout time.Duration
	// MaxTimeout caps every job's timeout (0 = uncapped).
	MaxTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.QueueDepth == 0 {
		o.QueueDepth = 16
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 128
	}
	return o
}

// Job statuses.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusTimeout  = "timeout"
	StatusCanceled = "canceled"
)

// ErrBusy is returned by Submit when the job queue is at capacity; the
// HTTP layer maps it to 429 with a Retry-After estimate.
var ErrBusy = errors.New("serve: queue full")

// ErrClosed is returned by Submit once shutdown has begun.
var ErrClosed = errors.New("serve: shutting down")

// Job is one submission's record: identity, lifecycle, and (once
// finished) the rendered result document.
type Job struct {
	ID   string
	Seq  uint64
	Kind string
	Key  string // canonical config identity

	job    *cagc.ResolvedJob // what exec runs; nil once it has run
	traced bool
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal status

	mu        sync.Mutex
	rec       *cagc.TraceRecorder // a traced job's recording; nil once released
	status    string
	errMsg    string
	body      []byte
	summary   string
	events    uint64
	cached    bool
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Snapshot is a point-in-time copy of the job's mutable state.
type JobState struct {
	ID        string
	Kind      string
	Key       string
	Status    string
	Err       string
	Cached    bool
	Traced    bool
	Events    uint64
	QueuedFor time.Duration // submission → execution start (or now)
	RanFor    time.Duration // execution start → finish (or now)
	Body      []byte        // terminal successful jobs only
	Summary   string
}

// State returns the job's current state. Body is the verbatim result
// document; callers must not mutate it.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobState{
		ID: j.ID, Kind: j.Kind, Key: j.Key,
		Status: j.status, Err: j.errMsg, Cached: j.cached,
		Traced: j.traced, Events: j.events,
		Body: j.body, Summary: j.summary,
	}
	switch {
	case j.started.IsZero():
		st.QueuedFor = time.Since(j.submitted)
	default:
		st.QueuedFor = j.started.Sub(j.submitted)
		if j.finished.IsZero() {
			st.RanFor = time.Since(j.started)
		} else {
			st.RanFor = j.finished.Sub(j.started)
		}
	}
	return st
}

// Cancel cancels the job's context. Queued jobs fail as canceled when
// dequeued; running jobs abort at the replay's next cancellation poll.
func (j *Job) Cancel() { j.cancel() }

// Recorder returns the job's trace recorder: nil when untraced, and
// nil once the service has released the recording (it keeps those of
// the tracedRetained most recently finished traced jobs).
func (j *Job) Recorder() *cagc.TraceRecorder {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// tracedRetained is how many finished traced jobs keep their
// recordings. A recording is unbounded (about 50 bytes per simulated
// event), so far fewer are kept than finished jobs.
const tracedRetained = 8

// jobID is the ID of the seq'th registered job.
func jobID(seq uint64) string { return fmt.Sprintf("j-%06d", seq) }

// fifo is a ring of finished jobs, oldest first, holding at most max.
type fifo struct {
	jobs []*Job
	head int // oldest, once the ring is full
	max  int
}

// push appends j and returns the oldest job when the ring was full (it
// is no longer held), or nil.
func (f *fifo) push(j *Job) *Job {
	if len(f.jobs) < f.max {
		f.jobs = append(f.jobs, j)
		return nil
	}
	old := f.jobs[f.head]
	f.jobs[f.head] = j
	f.head = (f.head + 1) % f.max
	return old
}

// Metrics is the /metrics snapshot: serving-layer counters plus the
// substrate telemetry underneath (warm-snapshot registry, work-steal
// pool, clone gauge).
type Metrics struct {
	Uptime       time.Duration
	Queue        pool.QueueStats
	Cache        CacheStats
	Jobs         map[string]uint64 // terminal status → count
	Retained     int               // jobs in the registry
	Expired      uint64            // finished jobs the registry has forgotten
	Events       uint64            // simulated events retired by completed jobs
	EventsPerSec float64           // Events over uptime
	WarmCache    cagc.CacheStats
	Steals       uint64
	Clones       sim.CloneStats
}

// Server is the job engine. Create with New, serve HTTP via Handler,
// stop with Shutdown.
type Server struct {
	opts  Options
	queue *pool.Queue
	cache *resultCache
	t0    time.Time
	// svcRec is the service-lifetime flight recorder: every admission
	// outcome (wait/job spans, cache hits, rejections) lands on the
	// serve track, times relative to server start. Bounded — it keeps
	// the last window, the flight-recorder discipline.
	svcRec *cagc.TraceRecorder

	mu sync.Mutex
	// jobs holds every queued or running job and the finished jobs in
	// finished; a finished job pushed out of finished is forgotten.
	jobs      map[string]*Job
	finished  fifo
	traced    fifo   // finished traced jobs that keep their recordings
	forgotten uint64 // finished jobs pushed out of finished
	seq       uint64 // the last ID issued
	closing   bool
	byState   map[string]uint64 // terminal status → count
	events    uint64
	ewmaNs    float64 // EWMA of executed-job wall time, for Retry-After

	// beforeExec, when non-nil, runs on the worker just before a job
	// executes, inside its panic recovery — a test hook to wedge the
	// queue or fail a job deterministically.
	beforeExec func()
}

// New starts a Server (its queue workers run until Shutdown).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		opts:     opts,
		queue:    pool.NewQueue(opts.QueueDepth, opts.Workers),
		cache:    newResultCache(opts.CacheEntries),
		t0:       time.Now(),
		svcRec:   cagc.NewFlightRecorder(4096),
		jobs:     map[string]*Job{},
		finished: fifo{max: max(opts.CacheEntries, opts.QueueDepth+opts.Workers, 1)},
		traced:   fifo{max: tracedRetained},
		byState:  map[string]uint64{},
	}
}

// Submit validates spec, answers it from the result cache when
// possible, and otherwise admits it onto the job queue. Returns ErrBusy
// when the queue is full (nothing was enqueued or executed), ErrClosed
// during shutdown, or a validation error.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	r, timeout, err := spec.admit(s.opts.DefaultTimeout, s.opts.MaxTimeout)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing { // refused before the cache counts a hit or a miss
		return nil, ErrClosed
	}
	j := &Job{Kind: r.Kind, Key: r.Key, done: make(chan struct{}), submitted: time.Now()}

	// Cache first: a repeat of a finished job is answered byte-
	// identically without touching the queue. Traced jobs always
	// execute — the recording is the point — but re-populate the cache
	// on completion (the document is identical either way).
	if !spec.Trace {
		if hit, ok := s.cache.get(r.Key); ok {
			j.ctx, j.cancel = context.Background(), func() {}
			j.mu.Lock()
			j.status, j.cached = StatusDone, true
			j.body, j.summary, j.events = hit.body, hit.summary, hit.events
			j.started, j.finished = j.submitted, j.submitted
			j.mu.Unlock()
			close(j.done)
			if err := s.register(j, false); err != nil {
				return nil, err
			}
			s.svcRec.Instant(obs.TrackServe, obs.KServeCacheHit, s.sinceStart(), j.Seq)
			return j, nil
		}
	} else {
		j.rec, j.traced = cagc.NewTraceRecorder(), true
	}
	r.Params.Trace = j.rec

	if timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(context.Background(), timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}
	r.Params.Ctx = j.ctx
	j.job = r
	j.mu.Lock()
	j.status = StatusQueued
	j.mu.Unlock()
	if err := s.register(j, true); err != nil {
		j.cancel()
		switch {
		case errors.Is(err, pool.ErrQueueFull):
			s.svcRec.Instant(obs.TrackServe, obs.KServeReject, s.sinceStart(), uint64(s.queue.Stats().Depth))
			return nil, ErrBusy
		default:
			return nil, ErrClosed
		}
	}
	return j, nil
}

// register issues j the next ID and files it in the registry. A queued
// job is admitted onto the queue under the same lock, so a refused job
// takes no ID and an admitted one is registered before it can finish.
// A job that comes here finished (a cache hit) is counted and retired
// at once.
func (s *Server) register(j *Job, queued bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrClosed
	}
	j.Seq = s.seq + 1
	j.ID = jobID(j.Seq)
	if queued {
		// Never blocks: a full queue refuses at once.
		if err := s.queue.TrySubmit(func() { s.exec(j) }); err != nil {
			return err
		}
	}
	s.seq = j.Seq
	s.jobs[j.ID] = j
	if !queued {
		s.byState[StatusDone]++
		s.retire(j)
	}
	return nil
}

// retire files a finished job as the newest of the registry's finished
// jobs, forgetting the oldest when that makes one too many, and does
// the same for a traced job's recording. O(1). Callers hold s.mu.
func (s *Server) retire(j *Job) {
	if old := s.finished.push(j); old != nil {
		delete(s.jobs, old.ID)
		s.forgotten++
	}
	if !j.traced {
		return
	}
	if old := s.traced.push(j); old != nil {
		old.mu.Lock()
		old.rec = nil
		old.mu.Unlock()
	}
}

// exec runs one dequeued job to its terminal status.
func (s *Server) exec(j *Job) {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	queued := j.started.Sub(j.submitted)
	j.mu.Unlock()

	body, summary, events, err := s.run(j)
	finished := time.Now()
	j.cancel()  // release the deadline timer
	j.job = nil // the registry keeps the job a while, but not what it ran

	status := StatusDone
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = StatusTimeout
	case errors.Is(err, context.Canceled):
		status = StatusCanceled
	case err != nil:
		status = StatusFailed
	}
	if err == nil {
		s.cache.put(j.Key, &cachedResult{body: body, summary: summary, events: events})
	}
	ran := finished.Sub(j.started)
	// Serve-track telemetry on the job's own trace (a no-op for an
	// untraced job), times relative to submission so the spans sit next
	// to the simulated timeline.
	j.rec.Span(obs.TrackServe, obs.KServeWait, 0, event.Time(queued), j.Seq)
	j.rec.Span(obs.TrackServe, obs.KServeJob, event.Time(queued), event.Time(queued+ran), j.Seq)
	// The same spans on the service-lifetime recorder, server-relative.
	sub := event.Time(j.submitted.Sub(s.t0))
	s.svcRec.Span(obs.TrackServe, obs.KServeWait, sub, sub+event.Time(queued), j.Seq)
	s.svcRec.Span(obs.TrackServe, obs.KServeJob, sub+event.Time(queued), sub+event.Time(queued+ran), j.Seq)

	j.mu.Lock()
	j.status = status
	j.finished = finished
	if err != nil {
		j.errMsg = err.Error()
	} else {
		j.body, j.summary, j.events = body, summary, events
	}
	j.mu.Unlock()

	s.mu.Lock()
	s.byState[status]++
	if err == nil {
		s.events += events
	}
	wall := float64(finished.Sub(j.started))
	if s.ewmaNs == 0 {
		s.ewmaNs = wall
	} else {
		s.ewmaNs = 0.8*s.ewmaNs + 0.2*wall
	}
	s.retire(j)
	s.mu.Unlock()
	close(j.done)
}

// run executes j, turning a panic into the job's error: a bug in one job
// fails that job, never the service or its queue slot.
func (s *Server) run(j *Job) (body []byte, summary string, events uint64, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &pool.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if s.beforeExec != nil {
		s.beforeExec()
	}
	// The document is rendered by the same code as cagcsim -json, which
	// is the byte-identity contract the cache relies on.
	out, err := j.job.Execute()
	if err != nil {
		return nil, "", 0, err
	}
	return out.Doc, out.Report, out.Events, nil
}

// sinceStart is the server-relative timestamp for service-trace events.
func (s *Server) sinceStart() event.Time { return event.Time(time.Since(s.t0)) }

// ServiceTrace returns the service-lifetime flight recorder: admission
// telemetry (queue waits, job spans, cache hits, rejections) on the
// serve track, covering the most recent window.
func (s *Server) ServiceTrace() *cagc.TraceRecorder { return s.svcRec }

// Get returns a retained job by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// expired reports whether id was issued to a job the registry has since
// forgotten. IDs are issued in sequence, so that is an ID at or below
// the last one issued that is no longer retained.
func (s *Server) expired(id string) bool {
	n, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return false
	}
	seq, err := strconv.ParseUint(n, 10, 64)
	if err != nil || seq == 0 || jobID(seq) != id {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, retained := s.jobs[id]
	return seq <= s.seq && !retained
}

// Jobs returns every retained job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b *Job) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// RetryAfter estimates how long a refused submitter should wait for a
// queue slot: the backlog ahead of it, paced by the job-wall EWMA over
// the worker count. Never below one second.
func (s *Server) RetryAfter() time.Duration {
	qs := s.queue.Stats()
	s.mu.Lock()
	ewma := s.ewmaNs
	s.mu.Unlock()
	if ewma == 0 {
		return time.Second
	}
	backlog := qs.Depth + qs.Running
	d := time.Duration(ewma * float64(backlog) / float64(s.opts.Workers))
	if d < time.Second {
		d = time.Second
	}
	return d.Round(time.Second)
}

// Metrics returns the serving-layer counters plus substrate telemetry.
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	jobs := make(map[string]uint64, len(s.byState))
	for k, v := range s.byState {
		jobs[k] = v
	}
	events := s.events
	retained, forgotten := len(s.jobs), s.forgotten
	s.mu.Unlock()
	m := Metrics{
		Uptime:    time.Since(s.t0),
		Queue:     s.queue.Stats(),
		Cache:     s.cache.stats(),
		Jobs:      jobs,
		Retained:  retained,
		Expired:   forgotten,
		Events:    events,
		WarmCache: cagc.WarmCacheStats(),
		Steals:    pool.Steals(),
		Clones:    sim.CloneGaugeStats(),
	}
	if secs := m.Uptime.Seconds(); secs > 0 {
		m.EventsPerSec = float64(events) / secs
	}
	return m
}

// Shutdown stops admission and drains: every admitted job runs to
// completion. If ctx expires first, in-flight jobs are cancelled (they
// fail fast at the replay's next cancellation poll) and the drain still
// completes before return. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.queue.Close()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		for _, j := range s.Jobs() {
			j.cancel()
		}
		<-drained
		return ctx.Err()
	}
}
