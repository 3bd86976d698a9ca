package cagc

// Harness-level parallelism. Each simulation is an independent,
// deterministic, single-threaded computation, so experiments that need
// many runs (three workloads x three schemes x three policies, seed
// sweeps, queue-depth curves) fan them out across CPUs. Results are
// written into index-addressed slots, so parallel execution is
// bit-identical to sequential execution.
//
// The pool itself lives in internal/pool: pool.Run is the one
// dispatcher behind these sweeps, RunBatch and the fleet sharder. It
// reports one error per index — nil, the task's failure, or
// pool.ErrNotRun for tasks skipped after dispatch stopped — which is
// what RunBatch surfaces; forEach keeps the collapsed
// first-error-by-index contract for the sweep helpers.

import "cagc/internal/pool"

// forEach runs task(0..n-1) on up to GOMAXPROCS goroutines, in index
// order (pool.Run with no weights), and returns the first error by
// index, so failures are deterministic too. A failure stops dispatch:
// indices after it that no worker has started never run — a sweep with
// a broken configuration fails in one run's time, not n's.
func forEach(n int, task func(i int) error) error {
	return pool.First(pool.Run(n, pool.Options{}, task).Errs)
}
