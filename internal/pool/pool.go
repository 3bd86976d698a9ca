// Package pool is the shared worker pool behind every multi-run fan-out
// in the harness: experiment sweeps, seed batches, and the batched
// multi-run execution engine. Each task is an independent, deterministic
// computation whose result lands in an index-addressed slot, so parallel
// execution is bit-identical to sequential execution; the pool's only
// job is dispatch, error bookkeeping, and bounding concurrency.
package pool

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrNotRun marks a task index that was never dispatched because an
// earlier task failed first. Distinguishing "skipped" from "succeeded"
// (nil) and "failed" (any other error) is what lets a batch report
// exactly which runs completed.
var ErrNotRun = errors.New("pool: not run (dispatch stopped after an earlier failure)")

// PanicError is a task's panic, recovered at the task's index: the
// panic value and the stack of the goroutine that panicked. Every
// dispatcher treats it exactly like an error the task returned, so one
// panicking task cannot take the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: task panicked: %v\n%s", e.Value, e.Stack)
}

// call runs task(i), turning a panic into a *PanicError. Every
// dispatcher, serial or parallel, runs its tasks through it.
func call(task func(i int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return task(i)
}

// ForEach runs task(0..n-1) on up to workers goroutines (workers <= 0
// means GOMAXPROCS) and returns one error slot per index: nil for tasks
// that completed, the task's error for tasks that failed, and ErrNotRun
// for tasks never handed to a worker because dispatch stopped at the
// first failure. A task that panics fails with a *PanicError. Tasks
// already in flight when a failure occurs run to completion — a sweep with one broken configuration fails in about one
// run's time, and the caller still learns exactly which runs finished.
//
// The returned slice is nil when every task succeeded, so the
// all-clear path stays allocation-free for callers that only check
// emptiness.
func ForEach(n, workers int, task func(i int) error) []error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return forEachSerial(n, task)
	}
	var (
		errs   []error
		errsMu sync.Mutex
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	record := func(i int, err error) {
		errsMu.Lock()
		if errs == nil {
			errs = make([]error, n)
		}
		errs[i] = err
		errsMu.Unlock()
		failed.Store(true)
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := call(task, i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	dispatched := 0
	for ; dispatched < n && !failed.Load(); dispatched++ {
		next <- dispatched
	}
	close(next)
	wg.Wait()
	if errs != nil {
		for i := dispatched; i < n; i++ {
			errs[i] = ErrNotRun
		}
	}
	return errs
}

// forEachSerial is the single-worker path: in-order execution, stopping
// at the first failure.
func forEachSerial(n int, task func(i int) error) []error {
	for i := 0; i < n; i++ {
		if err := call(task, i); err != nil {
			errs := make([]error, n)
			errs[i] = err
			for j := i + 1; j < n; j++ {
				errs[j] = ErrNotRun
			}
			return errs
		}
	}
	return nil
}

// First returns the first error by index order — the deterministic
// collapsed error for callers that only need pass/fail — skipping
// ErrNotRun slots (the root cause is the failure that stopped
// dispatch, not the runs it skipped). nil when errs is nil.
func First(errs []error) error {
	var skipped error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrNotRun) {
			if skipped == nil {
				skipped = err
			}
			continue
		}
		return err
	}
	return skipped
}
