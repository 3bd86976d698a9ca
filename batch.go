package cagc

// Batched multi-run execution at the harness level. A batch is the unit
// the evaluation actually consumes — seed sweeps, scheme × policy
// grids, parameter curves — and running its points independently
// re-pays snapshot lookup and scheduling per run. RunBatch executes N
// run descriptors over the shared worker pool with the warm-state
// snapshot registry underneath: items that share a warm key clone from
// one snapshot (built once, singleflight), results land in
// index-addressed slots, and the batch reports the aggregate
// events/sec-per-machine number the substrate trajectory tracks.
// Dispatch is batch-aware (pool.Run): items are scheduled
// longest-estimated-first from the shared pool.Cost model, with work
// stealing so heterogeneous batches don't serialize behind a straggler.
// Per-run output is byte-identical to calling Run in a loop, at any
// worker count.

import (
	"runtime"
	"time"

	"cagc/internal/pool"
)

// BatchItem describes one run of a batch — exactly the arguments of
// Run. An empty Policy means "greedy".
type BatchItem struct {
	Workload Workload
	Scheme   Scheme
	Policy   string
	Params   Params
}

// ErrNotRun marks batch slots whose run was never dispatched because an
// earlier run failed first (re-exported from the worker pool so callers
// can classify Errs without importing it).
var ErrNotRun = pool.ErrNotRun

// BatchResult is the outcome of one RunBatch call. Results and Errs are
// index-addressed against the input items: Results[i] is non-nil
// exactly where Errs[i] is nil (Errs itself is nil when every run
// completed).
type BatchResult struct {
	Results []*Result
	Errs    []error
	Workers int           // worker count actually used
	Wall    time.Duration // wall clock of the whole batch
	Events  uint64        // simulated events summed over completed runs
}

// Completed counts runs that finished and have a Result.
func (b *BatchResult) Completed() int { return b.count(func(err error) bool { return err == nil }) }

// Failed counts runs that were dispatched and returned an error.
func (b *BatchResult) Failed() int {
	return b.count(func(err error) bool { return err != nil && err != ErrNotRun })
}

// Skipped counts runs never dispatched because dispatch stopped at an
// earlier failure.
func (b *BatchResult) Skipped() int { return b.count(func(err error) bool { return err == ErrNotRun }) }

func (b *BatchResult) count(pred func(error) bool) int {
	if b.Errs == nil {
		if pred(nil) {
			return len(b.Results)
		}
		return 0
	}
	n := 0
	for _, err := range b.Errs {
		if pred(err) {
			n++
		}
	}
	return n
}

// Err collapses the per-run errors to the first failure by index order
// (nil when every run completed), for callers that only need pass/fail.
func (b *BatchResult) Err() error { return pool.First(b.Errs) }

// AggregateEventsPerSec is the batch's machine-level throughput: total
// simulated events of every completed run divided by the batch's wall
// clock. This is the number parallel execution moves — per-run
// EventsPerSec measures one core's simulation speed; the aggregate
// measures how fast the machine retires a sweep.
func (b *BatchResult) AggregateEventsPerSec() float64 {
	if b.Wall <= 0 {
		return 0
	}
	return float64(b.Events) / b.Wall.Seconds()
}

// RunBatch executes items on up to workers goroutines (workers <= 0
// means GOMAXPROCS) and returns the index-addressed outcome. Dispatch
// stops at the first failure; runs already in flight complete, and
// slots never dispatched carry ErrNotRun. Items that share a warm state
// (same device, scheme, utilization, precondition parameters) clone
// from one cached snapshot; concurrent first requests share a single
// build.
func RunBatch(items []BatchItem, workers int) *BatchResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &BatchResult{
		Results: make([]*Result, len(items)),
		Workers: workers,
	}
	start := time.Now()
	st := pool.Run(len(items), pool.Options{
		Workers: workers,
		Weight: func(i int) float64 {
			p := items[i].Params.withDefaults()
			return pool.Cost.Estimate(string(items[i].Workload), float64(p.Requests))
		},
	}, func(i int) error {
		it := items[i]
		policy := it.Policy
		if policy == "" {
			policy = "greedy"
		}
		t0 := time.Now()
		res, err := Run(it.Workload, it.Scheme, policy, it.Params)
		if err != nil {
			return err
		}
		pool.Cost.Observe(string(it.Workload),
			float64(it.Params.withDefaults().Requests), float64(time.Since(t0)))
		b.Results[i] = res
		return nil
	})
	b.Errs = st.Errs
	b.Wall = time.Since(start)
	for i, res := range b.Results {
		if res != nil && (b.Errs == nil || b.Errs[i] == nil) {
			b.Events += EventsOf(res)
		}
	}
	return b
}

// SeedBatch builds the most common batch shape: one item per seed, all
// other parameters shared. Every item lands on the same warm snapshot
// (greedy and cost-benefit policies; the random policy keys its seed
// into the warm state, so each seed builds its own).
func SeedBatch(w Workload, s Scheme, policy string, p Params, seeds []int64) []BatchItem {
	items := make([]BatchItem, len(seeds))
	for i, seed := range seeds {
		q := p
		q.Seed = seed
		items[i] = BatchItem{Workload: w, Scheme: s, Policy: policy, Params: q}
	}
	return items
}
