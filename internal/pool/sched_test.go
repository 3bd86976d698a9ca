package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Run must execute every task exactly once at any worker count, and
// return nil Errs on the all-clear path (no per-index slice allocated).
func TestRunAllSucceed(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 17} {
		var ran [100]atomic.Int64
		st := Run(100, Options{Workers: workers}, func(i int) error {
			ran[i].Add(1)
			return nil
		})
		if st.Errs != nil {
			t.Fatalf("workers=%d: Errs = %v, want nil", workers, st.Errs)
		}
		for i := range ran {
			if ran[i].Load() != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, ran[i].Load())
			}
		}
	}
}

// Weighted dispatch must not change which tasks run or how errors are
// reported — only their order.
func TestRunWeightedAllSucceed(t *testing.T) {
	var ran [64]atomic.Int64
	st := Run(64, Options{
		Workers: 4,
		Weight:  func(i int) float64 { return float64(i % 7) },
	}, func(i int) error {
		ran[i].Add(1)
		return nil
	})
	if st.Errs != nil {
		t.Fatalf("Errs = %v, want nil", st.Errs)
	}
	for i := range ran {
		if ran[i].Load() != 1 {
			t.Fatalf("task %d ran %d times", i, ran[i].Load())
		}
	}
}

// A failing task gets its own error at its own index, completed tasks
// stay nil, and tasks never started report ErrNotRun — the bookkeeping
// a batch needs to say which runs finished.
func TestRunPerIndexErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 1000
			var started atomic.Int64
			st := Run(n, Options{Workers: workers}, func(i int) error {
				started.Add(1)
				if i == 3 {
					return boom
				}
				return nil
			})
			if st.Errs == nil {
				t.Fatal("Errs = nil despite a failure")
			}
			if !errors.Is(st.Errs[3], boom) {
				t.Fatalf("Errs[3] = %v, want boom", st.Errs[3])
			}
			var completed, notRun int
			for i, err := range st.Errs {
				switch {
				case err == nil:
					completed++
				case errors.Is(err, ErrNotRun):
					notRun++
				case i != 3:
					t.Fatalf("Errs[%d] = %v, want nil or ErrNotRun", i, err)
				}
			}
			if completed+notRun+1 != n {
				t.Fatalf("slots: %d completed + %d not-run + 1 failed != %d", completed, notRun, n)
			}
			if int64(n-notRun) != started.Load() {
				t.Fatalf("started %d tasks but %d slots are not ErrNotRun", started.Load(), n-notRun)
			}
			if notRun == 0 && workers == 1 {
				t.Fatal("serial Run dispatched past the failure")
			}
			if err := First(st.Errs); !errors.Is(err, boom) {
				t.Fatalf("First = %v, want boom", err)
			}
		})
	}
}

// The unweighted schedule the root package's forEach sweeps use must
// stop dispatch at a failure at every worker count: with workers parked
// until the failure is visible, most indices are never started and
// report ErrNotRun, while every slot is still accounted for.
func TestForEachPerIndexErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 1000
			var started atomic.Int64
			var failed atomic.Bool
			st := Run(n, Options{Workers: workers}, func(i int) error {
				started.Add(1)
				if i == 3 {
					failed.Store(true)
					return boom
				}
				// Park tasks in flight until the failure is visible, so
				// dispatch stops with most indices never started. (Serial
				// execution reaches index 3 on its own.)
				for workers > 1 && !failed.Load() {
					runtime.Gosched()
				}
				return nil
			})
			if st.Errs == nil {
				t.Fatal("Errs = nil despite a failure")
			}
			if !errors.Is(st.Errs[3], boom) {
				t.Fatalf("Errs[3] = %v, want boom", st.Errs[3])
			}
			if !errors.Is(st.Errs[n-1], ErrNotRun) {
				t.Fatalf("Errs[%d] = %v, want ErrNotRun (dispatch stopped)", n-1, st.Errs[n-1])
			}
			var completed, notRun int
			for i, err := range st.Errs {
				switch {
				case err == nil:
					completed++
				case errors.Is(err, ErrNotRun):
					notRun++
				case i != 3:
					t.Fatalf("Errs[%d] = %v, want nil or ErrNotRun", i, err)
				}
			}
			if completed+notRun+1 != n {
				t.Fatalf("slots: %d completed + %d not-run + 1 failed != %d", completed, notRun, n)
			}
			if int64(n-notRun) != started.Load() {
				t.Fatalf("started %d tasks but %d slots are not ErrNotRun", started.Load(), n-notRun)
			}
			if notRun == 0 {
				t.Fatal("Run dispatched past the failure")
			}
			if err := First(st.Errs); !errors.Is(err, boom) {
				t.Fatalf("First = %v, want boom", err)
			}
		})
	}
}

// Without weights the schedule is index order: the serial path runs
// strictly ascending and stops at the failure.
func TestRunSerialIndexOrder(t *testing.T) {
	var order []int
	st := Run(10, Options{Workers: 1}, func(i int) error {
		order = append(order, i)
		if i == 4 {
			return errors.New("stop")
		}
		return nil
	})
	for i, got := range order {
		if got != i || len(order) != 5 {
			t.Fatalf("ran %v, want 0..4 ascending", order)
		}
	}
	for i := 5; i < 10; i++ {
		if !errors.Is(st.Errs[i], ErrNotRun) {
			t.Fatalf("Errs[%d] = %v, want ErrNotRun", i, st.Errs[i])
		}
	}
}

// A failure stops only the tasks scheduled after it: a task scheduled
// before it still runs, even when its worker only gets to it after the
// failure landed — so the failure a serial run would hit first is the
// one reported, at any worker count. Two workers deal {0, 2, 4} and
// {1, 3, 5}; task 1 holds its worker until task 4 has failed, and
// task 3 must run afterwards.
func TestRunFailureKeepsEarlierTasks(t *testing.T) {
	boom := errors.New("boom 4")
	failing := make(chan struct{})
	st := Run(6, Options{Workers: 2}, func(i int) error {
		switch i {
		case 1:
			<-failing
			time.Sleep(10 * time.Millisecond) // let the failure be recorded
		case 4:
			close(failing)
			return boom
		}
		return nil
	})
	if st.Errs[3] != nil {
		t.Fatalf("Errs[3] = %v: a task scheduled before the failure did not run", st.Errs[3])
	}
	if !errors.Is(st.Errs[4], boom) || !errors.Is(st.Errs[5], ErrNotRun) {
		t.Fatalf("Errs = %v, want boom at 4 and ErrNotRun at 5", st.Errs)
	}
}

// The serial path runs heaviest-first and stops at the first failure in
// schedule order.
func TestRunSerialWeightOrder(t *testing.T) {
	var order []int
	st := Run(5, Options{
		Workers: 1,
		Weight:  func(i int) float64 { return float64(i) },
	}, func(i int) error {
		order = append(order, i)
		if i == 2 {
			return errors.New("stop")
		}
		return nil
	})
	want := []int{4, 3, 2}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for k, i := range want {
		if order[k] != i {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
	for _, i := range []int{0, 1} {
		if !errors.Is(st.Errs[i], ErrNotRun) {
			t.Fatalf("Errs[%d] = %v, want ErrNotRun (lighter than the failure)", i, st.Errs[i])
		}
	}
}

// sortByWeight orders heaviest-first with index-order tie-breaking and
// keeps identity order for a nil weight.
func TestSortByWeight(t *testing.T) {
	got := sortByWeight(6, func(i int) float64 { return float64(i % 3) })
	want := []int{2, 5, 1, 4, 0, 3}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("sortByWeight = %v, want %v", got, want)
		}
	}
	id := sortByWeight(4, nil)
	for k, i := range id {
		if k != i {
			t.Fatalf("nil weight reordered: %v", id)
		}
	}
}

// An idle worker must steal queued work instead of exiting: one slow
// task on one worker's deque cannot leave the rest of that deque
// waiting while other workers sit idle.
func TestRunStealsBackfillStalls(t *testing.T) {
	// Two workers, four tasks. Round-robin dealing from the
	// heaviest-first order [0 1 2 3] puts {0, 2} on worker 0 and {1, 3}
	// on worker 1. Task 0 blocks until every other task has finished —
	// only possible if worker 1 steals task 2.
	release := make(chan struct{})
	var done atomic.Int64
	var mu sync.Mutex
	seen := map[int]bool{}
	st := Run(4, Options{Workers: 2}, func(i int) error {
		if i == 0 {
			<-release
			return nil
		}
		mu.Lock()
		seen[i] = true
		n := len(seen)
		mu.Unlock()
		if n == 3 {
			close(release)
		}
		done.Add(1)
		return nil
	})
	if st.Errs != nil {
		t.Fatalf("Errs = %v", st.Errs)
	}
	if st.Steals == 0 {
		t.Fatal("no steals recorded despite a stalled worker holding queued work")
	}
}

// The process-wide steal counter accumulates across runs.
func TestStealsCounterAccumulates(t *testing.T) {
	before := Steals()
	TestRunStealsBackfillStalls(t)
	if Steals() < before+1 {
		t.Fatalf("process steal counter did not advance: %d -> %d", before, Steals())
	}
}

// CostModel: estimates scale by the last observed ns/event, unknown
// classes fall back to raw event counts, and non-positive observations
// are ignored.
func TestCostModel(t *testing.T) {
	var m CostModel
	if got := m.Estimate("mail", 100); got != 100 {
		t.Fatalf("unknown class estimate = %v, want raw events 100", got)
	}
	m.Observe("mail", 1000, 2000) // 2 ns/event
	if got := m.Estimate("mail", 100); got != 200 {
		t.Fatalf("estimate = %v, want 200", got)
	}
	m.Observe("mail", 1000, 5000) // last-seen wins: 5 ns/event
	if got := m.Estimate("mail", 100); got != 500 {
		t.Fatalf("estimate after re-observe = %v, want 500", got)
	}
	m.Observe("mail", 0, 5000)
	m.Observe("mail", 1000, -1)
	if got := m.Estimate("mail", 100); got != 500 {
		t.Fatalf("degenerate observations changed the estimate: %v", got)
	}
	m.Observe("web", 100, 100)
	if got := m.Estimate("web", 50); got != 50 {
		t.Fatalf("second class estimate = %v, want 50", got)
	}
	if got := m.Estimate("mail", 100); got != 500 {
		t.Fatalf("second class clobbered the first: %v", got)
	}
}
