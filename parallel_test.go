package cagc

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachStopsDispatchOnError(t *testing.T) {
	// Once a task fails, indices not yet handed to a worker must never
	// run: a sweep with a broken configuration should cost one run's
	// time, not n's. Task 0 errors immediately; every other task parks
	// until the failure is visible, so the dispatcher observes it before
	// it could hand out more than the handful of indices already in
	// flight.
	const n = 10_000
	boom := errors.New("boom 0")
	var failed atomic.Bool
	var executed atomic.Int64
	err := forEach(n, func(i int) error {
		executed.Add(1)
		if i == 0 {
			failed.Store(true)
			return boom
		}
		for !failed.Load() {
			runtime.Gosched()
		}
		// Task 0 raises this flag just before it returns; the pool only
		// sees the failure once that return has been recorded. Linger so
		// the gap admits one more task per worker, not thousands.
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The unbuffered dispatch channel bounds in-flight work to roughly
	// one index per worker; allow generous slack for indices dispatched
	// before the failure landed.
	if max := int64(4 * runtime.GOMAXPROCS(0)); executed.Load() > max {
		t.Fatalf("executed %d tasks after first error, want <= %d", executed.Load(), max)
	}
}
