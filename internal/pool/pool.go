// Package pool is the shared worker pool behind every multi-run fan-out
// in the harness: experiment sweeps, seed batches, fleet shards and the
// serving layer's job queue. Each task is an independent, deterministic
// computation whose result lands in an index-addressed slot, so parallel
// execution is bit-identical to sequential execution; the pool's only
// job is dispatch, error bookkeeping, and bounding concurrency. Run
// (sched.go) is the one dispatcher for a known task list.
package pool

import (
	"errors"
	"fmt"
	"runtime/debug"
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
