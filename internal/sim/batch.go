package sim

// Batched multi-run execution. Sweeps — seed batches, parameter curves,
// multi-workload ablations — are the unit of work the figures actually
// consume, and running them one at a time re-pays cold caches on every
// run. RunBatch executes N independent runs on a bounded worker pool:
// each worker takes a run to completion before starting the next (all
// of a run's requests are served back-to-back, keeping its flathash
// tables and FTL state cache-resident), warm runs
// clone from a shared preconditioned snapshot via the cheap
// flat-structure copies instead of rebuilding, and results land in
// index-addressed slots. Every run is a deterministic single-threaded
// computation, so per-run output is byte-identical to a serial
// execution at any worker count — the batched-determinism CI step and
// TestRunBatchWorkerCountInvariance enforce it.

import (
	"time"

	"cagc/internal/pool"
	"cagc/internal/trace"
)

// BatchRun describes one run of a batch. Snap, when non-nil, serves the
// run from that warm snapshot (Cfg must be compatible with it, exactly
// as in RunWarm); nil means a cold build + precondition + replay.
type BatchRun struct {
	Snap *Snapshot
	Cfg  Config
	Spec trace.Spec
}

// ErrNotRun marks batch slots whose run was never dispatched because an
// earlier run failed first.
var ErrNotRun = pool.ErrNotRun

// RunBatch executes runs on up to workers goroutines (workers <= 0
// means GOMAXPROCS) and returns index-addressed results and errors:
// results[i] is non-nil exactly where errs[i] is nil. Dispatch stops at
// the first failure, but runs already in flight complete and are
// reported; slots never dispatched carry ErrNotRun — a batch always
// says exactly which runs finished. errs is nil when every run
// completed.
//
// Dispatch is batch-aware (pool.Run): runs are scheduled
// longest-estimated-first — estimate = trace events × the workload
// class's last-seen ns/event from the shared pool.Cost model — with
// work stealing, so short runs backfill worker stalls instead of
// serializing behind stragglers. Results are index-addressed and every
// run is a deterministic single-threaded computation, so output stays
// byte-identical at any worker count regardless of execution order.
func RunBatch(runs []BatchRun, workers int) (results []*Result, errs []error) {
	results = make([]*Result, len(runs))
	st := pool.Run(len(runs), pool.Options{
		Workers: workers,
		Weight: func(i int) float64 {
			return pool.Cost.Estimate(runs[i].Spec.Name, float64(runs[i].Spec.Requests))
		},
	}, func(i int) error {
		r := runs[i]
		var (
			res *Result
			err error
		)
		start := time.Now()
		if r.Snap != nil {
			res, err = RunWarmRecycled(r.Snap, r.Cfg, r.Spec)
		} else {
			res, err = Run(r.Cfg, r.Spec)
		}
		if err != nil {
			return err
		}
		pool.Cost.Observe(r.Spec.Name, float64(r.Spec.Requests), float64(time.Since(start)))
		results[i] = res
		return nil
	})
	return results, st.Errs
}
