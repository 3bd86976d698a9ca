package pool

// Bounded job queue: the admission-control primitive underneath the
// serving layer. Where Run executes a known, finite task list,
// a Queue accepts work over time — TrySubmit either admits a job into
// a fixed-depth buffer or refuses it immediately (ErrQueueFull), which
// is what lets an HTTP front end return 429 instead of building an
// unbounded backlog. A fixed set of workers drains the buffer in FIFO
// admission order; Close stops admission and drains what was already
// accepted, the graceful-shutdown contract.

import (
	"errors"
	"runtime"
	"sync"
)

// ErrQueueFull is returned by TrySubmit when the queue's buffer is at
// capacity. The caller sheds load (HTTP 429); nothing was enqueued.
var ErrQueueFull = errors.New("pool: queue full")

// ErrQueueClosed is returned by TrySubmit after Close: the queue no
// longer admits work.
var ErrQueueClosed = errors.New("pool: queue closed")

// QueueStats is a point-in-time snapshot of a queue's counters.
type QueueStats struct {
	Depth    int    // jobs admitted and not yet started
	Running  int    // jobs currently executing
	Workers  int    // worker goroutines draining the queue
	Capacity int    // admission buffer depth
	Admitted uint64 // TrySubmit calls that enqueued
	Rejected uint64 // TrySubmit calls refused with ErrQueueFull
	Done     uint64 // jobs whose execution has completed
}

// Queue is a bounded FIFO work queue drained by a fixed worker set.
// Safe for concurrent TrySubmit/Stats; Close may be called once.
type Queue struct {
	jobs chan func()

	mu       sync.Mutex
	closed   bool
	depth    int
	running  int
	admitted uint64
	rejected uint64
	done     uint64

	workers int
	wg      sync.WaitGroup
}

// NewQueue starts a queue admitting at most depth jobs beyond the ones
// executing, drained by the given number of workers (<= 0 means
// GOMAXPROCS; depth < 1 clamps to 1).
func NewQueue(depth, workers int) *Queue {
	if depth < 1 {
		depth = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	q := &Queue{jobs: make(chan func(), depth), workers: workers}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.drain()
	}
	return q
}

func (q *Queue) drain() {
	defer q.wg.Done()
	for job := range q.jobs {
		q.mu.Lock()
		q.depth--
		q.running++
		q.mu.Unlock()
		job()
		q.mu.Lock()
		q.running--
		q.done++
		q.mu.Unlock()
	}
}

// TrySubmit admits job or refuses it without blocking: ErrQueueFull
// when the buffer is at capacity, ErrQueueClosed after Close. The
// admission decision and the channel send happen under the queue's
// lock, so a successful TrySubmit is never lost to a concurrent Close.
func (q *Queue) TrySubmit(job func()) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	select {
	case q.jobs <- job:
		q.depth++
		q.admitted++
		return nil
	default:
		q.rejected++
		return ErrQueueFull
	}
}

// Close stops admission and blocks until every already-admitted job has
// finished — queued jobs still run; none are dropped. Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	close(q.jobs)
	q.mu.Unlock()
	q.wg.Wait()
}

// Stats returns the queue's current counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Depth:    q.depth,
		Running:  q.running,
		Workers:  q.workers,
		Capacity: cap(q.jobs),
		Admitted: q.admitted,
		Rejected: q.rejected,
		Done:     q.done,
	}
}
