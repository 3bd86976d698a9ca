package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Batch-aware dispatch. ForEach hands tasks out in index order, which
// serializes a batch behind its stragglers: a long run dispatched late
// leaves every other worker idle while it finishes. Run instead sorts
// tasks longest-estimated-first, deals them round-robin onto per-worker
// deques, and lets idle workers steal from the back of a victim's deque
// (its shortest remaining task), so short runs backfill worker stalls.
//
// Scheduling never touches results: every task writes an
// index-addressed slot and callers fold those slots in index order, so
// output is byte-identical at any worker count, with or without
// stealing — the same determinism contract ForEach has. Only wall
// clock (and the steal counter) varies.

// Options configures Run.
type Options struct {
	// Workers bounds concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// Weight estimates task i's cost in arbitrary consistent units
	// (e.g. trace events × ns/event). Tasks run longest-first; ties
	// break by index. nil keeps index order.
	Weight func(i int) float64
}

// RunStats reports one Run invocation.
type RunStats struct {
	// Errs is one slot per index: nil for tasks that completed, the
	// task's error for tasks that failed, ErrNotRun for tasks never
	// started because dispatch stopped at the first failure. nil when
	// every task succeeded (same contract as ForEach).
	Errs []error
	// Steals counts tasks executed by a worker other than the one they
	// were dealt to.
	Steals uint64
}

// stealsTotal accumulates steals across every Run in the process, for
// benchmark deltas and obs counters.
var stealsTotal atomic.Uint64

// Steals returns the process-wide steal count.
func Steals() uint64 { return stealsTotal.Load() }

// Run executes task(0..n-1) with batch-aware scheduling: tasks are
// ordered longest-estimated-first (per opts.Weight), dealt round-robin
// onto per-worker deques, and idle workers steal the shortest remaining
// task from another deque. Error semantics match ForEach exactly:
// per-index errors, dispatch stops at the first failure, tasks already
// in flight run to completion, never-started tasks report ErrNotRun,
// and the slice is nil when everything succeeded.
func Run(n int, opts Options, task func(i int) error) RunStats {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	order := sortByWeight(n, opts.Weight)
	if workers <= 1 {
		return RunStats{Errs: runSerial(n, order, task)}
	}

	var (
		mu     sync.Mutex
		deques = make([][]int, workers)
		errs   []error
		failed bool
		steals uint64
		wg     sync.WaitGroup
	)
	for k, idx := range order {
		w := k % workers
		deques[w] = append(deques[w], idx)
	}
	// next pops the worker's own front task (its longest remaining), or
	// steals the back task (the victim's shortest) scanning victims in a
	// deterministic ring from w+1. Returns done once every deque is
	// empty or a failure has stopped dispatch.
	next := func(w int) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if failed {
			return 0, false
		}
		if d := deques[w]; len(d) > 0 {
			i := d[0]
			deques[w] = d[1:]
			return i, true
		}
		for k := 1; k < workers; k++ {
			v := (w + k) % workers
			if d := deques[v]; len(d) > 0 {
				i := d[len(d)-1]
				deques[v] = d[:len(d)-1]
				steals++
				return i, true
			}
		}
		return 0, false
	}
	record := func(i int, err error) {
		mu.Lock()
		if errs == nil {
			errs = make([]error, n)
		}
		errs[i] = err
		failed = true
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i, ok := next(w)
				if !ok {
					return
				}
				if err := call(task, i); err != nil {
					record(i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if errs != nil {
		// Whatever is still sitting in a deque never started.
		for _, d := range deques {
			for _, i := range d {
				errs[i] = ErrNotRun
			}
		}
	}
	stealsTotal.Add(steals)
	return RunStats{Errs: errs, Steals: steals}
}

// runSerial executes order in sequence, stopping at the first failure;
// per-index error semantics match forEachSerial.
func runSerial(n int, order []int, task func(i int) error) []error {
	for k, i := range order {
		if err := call(task, i); err != nil {
			errs := make([]error, n)
			errs[i] = err
			for _, j := range order[k+1:] {
				errs[j] = ErrNotRun
			}
			return errs
		}
	}
	return nil
}

// sortByWeight returns task indices heaviest-first with index-order
// tie-breaking (a deterministic schedule for a deterministic weight
// function). A nil weight keeps plain index order.
func sortByWeight(n int, weight func(i int) float64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if weight == nil {
		return order
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = weight(i)
	}
	// Insertion sort on (weight desc, index asc): batches are small
	// (dozens to hundreds of shards) and the input is often mostly
	// sorted already (uniform weights), where this is O(n).
	for i := 1; i < n; i++ {
		j, cur := i, order[i]
		for j > 0 && w[order[j-1]] < w[cur] {
			order[j] = order[j-1]
			j--
		}
		order[j] = cur
	}
	return order
}

// CostModel estimates task cost per workload class from observed
// executions: the last-seen nanoseconds per trace event of each class.
// Unknown classes fall back to raw event count, which still orders
// tasks sensibly (more events ≈ more work). Classes are kept in a
// linear-scan slice — the population is tiny (one entry per workload
// name) and iteration order stays deterministic.
type CostModel struct {
	mu    sync.Mutex
	names []string
	ns    []float64 // ns per event, parallel to names
}

// Cost is the process-wide model batch and fleet executions share:
// fleet shards observed in one wave inform the estimates of the next.
var Cost CostModel

// Observe records that a run of class processed events trace events in
// ns nanoseconds, replacing the class's previous estimate (last-seen
// wins: it reflects the current machine load better than a long
// average).
func (m *CostModel) Observe(class string, events, ns float64) {
	if events <= 0 || ns <= 0 {
		return
	}
	perEvent := ns / events
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, name := range m.names {
		if name == class {
			m.ns[i] = perEvent
			return
		}
	}
	m.names = append(m.names, class)
	m.ns = append(m.ns, perEvent)
}

// Estimate returns the estimated cost of a run of class with events
// trace events: events × last-seen ns/event, or plain events for a
// class never observed.
func (m *CostModel) Estimate(class string, events float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, name := range m.names {
		if name == class {
			return events * m.ns[i]
		}
	}
	return events
}
