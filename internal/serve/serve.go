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
// The deterministic-document discipline is the same one the CLI
// follows: result bodies depend only on the job's configuration, never
// on worker counts, queue state, or wall clock; wall-clock facts live
// in job status fields and /metrics.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
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
	// CacheEntries bounds the result cache (default 128 documents).
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

	spec   *resolvedJob
	rec    *cagc.TraceRecorder // non-nil for traced jobs
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal status

	mu        sync.Mutex
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

// Done returns a channel closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

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
		Traced: j.rec != nil, Events: j.events,
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

// Recorder returns the job's trace recorder (nil when untraced).
func (j *Job) Recorder() *cagc.TraceRecorder { return j.rec }

// Metrics is the /metrics snapshot: serving-layer counters plus the
// substrate telemetry underneath (warm-snapshot registry, work-steal
// pool, clone gauge).
type Metrics struct {
	Uptime       time.Duration
	Queue        pool.QueueStats
	Cache        CacheStats
	Jobs         map[string]uint64 // terminal status → count
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

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // insertion order, for listing
	seq     uint64
	closing bool
	byState map[string]uint64 // terminal status → count
	events  uint64
	ewmaNs  float64 // EWMA of executed-job wall time, for Retry-After

	// beforeExec, when non-nil, runs on the worker just before a job
	// executes, inside its panic recovery — a test hook to wedge the
	// queue or fail a job deterministically.
	beforeExec func()
}

// New starts a Server (its queue workers run until Shutdown).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		opts:    opts,
		queue:   pool.NewQueue(opts.QueueDepth, opts.Workers),
		cache:   newResultCache(opts.CacheEntries),
		t0:      time.Now(),
		svcRec:  cagc.NewFlightRecorder(4096),
		jobs:    map[string]*Job{},
		byState: map[string]uint64{},
	}
}

// Submit validates spec, answers it from the result cache when
// possible, and otherwise admits it onto the job queue. Returns ErrBusy
// when the queue is full (nothing was enqueued or executed), ErrClosed
// during shutdown, or a validation error.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	r, err := spec.resolve(s.opts.DefaultTimeout, s.opts.MaxTimeout)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.seq++
	j := &Job{
		ID:   fmt.Sprintf("j-%06d", s.seq),
		Seq:  s.seq,
		Kind: r.kind,
		Key:  r.key,
		spec: r,
		done: make(chan struct{}),
	}
	j.submitted = time.Now()
	s.mu.Unlock()

	// Cache first: a repeat of a finished job is answered byte-
	// identically without touching the queue. Traced jobs always
	// execute — the recording is the point — but re-populate the cache
	// on completion (the document is identical either way).
	if !r.trace {
		if hit, ok := s.cache.get(r.key); ok {
			s.svcRec.Instant(obs.TrackServe, obs.KServeCacheHit, s.sinceStart(), j.Seq)
			j.ctx, j.cancel = context.Background(), func() {}
			j.mu.Lock()
			j.status, j.cached = StatusDone, true
			j.body, j.summary, j.events = hit.body, hit.summary, hit.events
			j.started, j.finished = j.submitted, j.submitted
			j.mu.Unlock()
			close(j.done)
			s.register(j, StatusDone)
			return j, nil
		}
	} else {
		j.rec = cagc.NewTraceRecorder()
	}

	if r.timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(context.Background(), r.timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}
	j.mu.Lock()
	j.status = StatusQueued
	j.mu.Unlock()
	if err := s.queue.TrySubmit(func() { s.exec(j) }); err != nil {
		j.cancel()
		switch {
		case errors.Is(err, pool.ErrQueueFull):
			s.svcRec.Instant(obs.TrackServe, obs.KServeReject, s.sinceStart(), uint64(s.queue.Stats().Depth))
			return nil, ErrBusy
		default:
			return nil, ErrClosed
		}
	}
	s.register(j, "")
	return j, nil
}

// register indexes the job and, for terminal states reached without
// executing (cache hits), counts them.
func (s *Server) register(j *Job, terminal string) {
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if terminal != "" {
		s.byState[terminal]++
	}
	s.mu.Unlock()
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
	j.cancel() // release the deadline timer

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
		s.cache.put(j.spec.key, &cachedResult{body: body, summary: summary, events: events})
	}
	ran := finished.Sub(j.started)
	if j.rec != nil {
		// Serve-track telemetry on the job's own trace, times relative
		// to submission so the spans sit next to the simulated timeline.
		j.rec.Span(obs.TrackServe, obs.KServeWait, 0, event.Time(queued), j.Seq)
		j.rec.Span(obs.TrackServe, obs.KServeJob, event.Time(queued), event.Time(queued+ran), j.Seq)
	}
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
	return s.execute(j.spec, j.ctx, j.rec)
}

// execute runs the resolved job and renders its result document and
// text summary. The document bytes are exactly what the CLI emits for
// the same configuration (WriteJSONKey / WriteFleetJSON), which is the
// byte-identity contract the cache and CI rely on.
func (s *Server) execute(r *resolvedJob, ctx context.Context, rec *cagc.TraceRecorder) (body []byte, summary string, events uint64, err error) {
	p := r.params
	p.Ctx = ctx
	if rec != nil {
		p.Trace = rec
	}
	var doc, txt bytes.Buffer
	switch r.kind {
	case KindRun:
		res, err := cagc.Run(r.workload, r.scheme, r.policy, p)
		if err != nil {
			return nil, "", 0, err
		}
		if err := cagc.WriteJSONKey(&doc, res, r.key); err != nil {
			return nil, "", 0, err
		}
		fmt.Fprintln(&txt, cagc.TableIString(p))
		fmt.Fprintln(&txt)
		cagc.FprintResult(&txt, res)
		return doc.Bytes(), txt.String(), cagc.EventsOf(res), nil

	case KindBatch, KindSweep:
		items := cagc.SeedBatch(r.workload, r.scheme, r.policy, p, r.seeds)
		b := cagc.RunBatch(items, 0)
		if err := b.Err(); err != nil {
			return nil, "", 0, err
		}
		// One document per run in seed order, exactly cagcsim -batch
		// -json; each carries its member identity.
		for i, res := range b.Results {
			q := r.params
			q.Seed = r.seeds[i]
			key := cagc.ConfigKey(r.workload, r.scheme, r.policy, q)
			if err := cagc.WriteJSONKey(&doc, res, key); err != nil {
				return nil, "", 0, err
			}
		}
		fmt.Fprintf(&txt, "batch: %d runs x %s x %s x %s\n", len(items), r.workload, r.scheme, r.policy)
		fmt.Fprintf(&txt, "wall %v  events %d  aggregate %.0f events/s\n",
			b.Wall.Round(time.Millisecond), b.Events, b.AggregateEventsPerSec())
		return doc.Bytes(), txt.String(), b.Events, nil

	case KindFleet:
		fr, err := cagc.RunFleet(r.workload, r.scheme, r.policy, p, r.fleet)
		if err != nil {
			return nil, "", 0, err
		}
		if err := cagc.WriteFleetJSON(&doc, fr.Result); err != nil {
			return nil, "", 0, err
		}
		cagc.FprintFleet(&txt, fr)
		return doc.Bytes(), txt.String(), fr.Result.Events, nil
	}
	return nil, "", 0, fmt.Errorf("serve: unreachable job kind %q", r.kind)
}

// sinceStart is the server-relative timestamp for service-trace events.
func (s *Server) sinceStart() event.Time { return event.Time(time.Since(s.t0)) }

// ServiceTrace returns the service-lifetime flight recorder: admission
// telemetry (queue waits, job spans, cache hits, rejections) on the
// serve track, covering the most recent window.
func (s *Server) ServiceTrace() *cagc.TraceRecorder { return s.svcRec }

// Get returns a job by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
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
	s.mu.Unlock()
	m := Metrics{
		Uptime:    time.Since(s.t0),
		Queue:     s.queue.Stats(),
		Cache:     s.cache.stats(),
		Jobs:      jobs,
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
