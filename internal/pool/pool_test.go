package pool

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachAllSucceed: the all-clear path returns nil (no per-index
// slice allocated) at every worker count.
func TestForEachAllSucceed(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 17} {
		var ran atomic.Int64
		if errs := ForEach(100, workers, func(i int) error {
			ran.Add(1)
			return nil
		}); errs != nil {
			t.Fatalf("workers=%d: errs = %v, want nil", workers, errs)
		}
		if ran.Load() != 100 {
			t.Fatalf("workers=%d: ran %d of 100 tasks", workers, ran.Load())
		}
	}
}

// TestForEachPerIndexErrors: a failing task gets its own error at its
// own index, completed tasks stay nil, and undispatched tasks report
// ErrNotRun — the bookkeeping a batch needs to say which runs finished.
func TestForEachPerIndexErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 1000
			var failed atomic.Bool
			errs := ForEach(n, workers, func(i int) error {
				if i == 3 {
					failed.Store(true)
					return boom
				}
				// Park tasks in flight until the failure is visible so the
				// dispatcher stops early and some indices stay undispatched.
				// (Serial execution reaches index 3 on its own: 0..2 run
				// before it, and nothing after it is dispatched.)
				for workers > 1 && !failed.Load() {
					runtime.Gosched()
				}
				return nil
			})
			if errs == nil {
				t.Fatal("errs = nil, want per-index errors")
			}
			if len(errs) != n {
				t.Fatalf("len(errs) = %d, want %d", len(errs), n)
			}
			if !errors.Is(errs[3], boom) {
				t.Errorf("errs[3] = %v, want %v", errs[3], boom)
			}
			if errs[0] != nil && !errors.Is(errs[0], ErrNotRun) {
				t.Errorf("errs[0] = %v, want nil (completed) or ErrNotRun", errs[0])
			}
			if !errors.Is(errs[n-1], ErrNotRun) {
				t.Errorf("errs[%d] = %v, want ErrNotRun (dispatch stopped)", n-1, errs[n-1])
			}
			var completed, failedCount, skipped int
			for _, err := range errs {
				switch {
				case err == nil:
					completed++
				case errors.Is(err, ErrNotRun):
					skipped++
				default:
					failedCount++
				}
			}
			if failedCount != 1 {
				t.Errorf("%d failures recorded, want 1", failedCount)
			}
			if skipped == 0 {
				t.Error("no tasks skipped; dispatch never stopped")
			}
			if completed+failedCount+skipped != n {
				t.Errorf("accounting leak: %d+%d+%d != %d", completed, failedCount, skipped, n)
			}
			if err := First(errs); !errors.Is(err, boom) {
				t.Errorf("First = %v, want %v", err, boom)
			}
		})
	}
}

// TestForEachSerialOrder: the single-worker path runs strictly in index
// order and stops at the failure.
func TestForEachSerialOrder(t *testing.T) {
	var order []int
	boom := errors.New("boom")
	errs := ForEach(10, 1, func(i int) error {
		order = append(order, i)
		if i == 4 {
			return boom
		}
		return nil
	})
	if len(order) != 5 {
		t.Fatalf("ran %d tasks, want 5 (0..4)", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v, want ascending", order)
		}
	}
	for i := 5; i < 10; i++ {
		if !errors.Is(errs[i], ErrNotRun) {
			t.Errorf("errs[%d] = %v, want ErrNotRun", i, errs[i])
		}
	}
}

// TestPanicIsATaskError: a panicking task fails at its own index with a
// *PanicError carrying the value and the panicking stack, and dispatch
// stops exactly as for a returned error — every slot is the panic, nil
// (ran) or ErrNotRun (never started) — under both dispatchers, serial
// and parallel.
func TestPanicIsATaskError(t *testing.T) {
	dispatchers := []struct {
		name string
		run  func(n, workers int, task func(i int) error) []error
	}{
		{"ForEach", ForEach},
		{"Run", func(n, workers int, task func(i int) error) []error {
			return Run(n, Options{Workers: workers}, task).Errs
		}},
	}
	for _, d := range dispatchers {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", d.name, workers), func(t *testing.T) {
				const n, bad = 200, 3
				var started atomic.Int64
				errs := d.run(n, workers, func(i int) error {
					started.Add(1)
					if i == bad {
						panic("boom")
					}
					return nil
				})
				var pe *PanicError
				if len(errs) != n || !errors.As(errs[bad], &pe) {
					t.Fatalf("errs = %v, want a *PanicError at %d", errs, bad)
				}
				if pe.Value != "boom" || !bytes.Contains(pe.Stack, []byte("TestPanicIsATaskError")) {
					t.Fatalf("PanicError{%v, stack without the task frame}:\n%s", pe.Value, pe.Stack)
				}
				notRun := 0
				for i, err := range errs {
					switch {
					case errors.Is(err, ErrNotRun):
						notRun++
					case err != nil && i != bad:
						t.Fatalf("errs[%d] = %v, want nil or ErrNotRun", i, err)
					}
				}
				if int64(n-notRun) != started.Load() {
					t.Fatalf("started %d tasks but %d slots are not ErrNotRun", started.Load(), n-notRun)
				}
				if workers == 1 && notRun != n-bad-1 {
					t.Fatalf("serial dispatch ran %d tasks past the panic", n-bad-1-notRun)
				}
				if err := First(errs); err != errs[bad] {
					t.Errorf("First = %v, want the panic", err)
				}
			})
		}
	}
}

// TestFirst: index order wins over completion order, and ErrNotRun is
// only surfaced when it is the sole kind of error present.
func TestFirst(t *testing.T) {
	a, b := errors.New("a"), errors.New("b")
	if err := First(nil); err != nil {
		t.Errorf("First(nil) = %v, want nil", err)
	}
	if err := First([]error{nil, ErrNotRun, b, a}); !errors.Is(err, b) {
		t.Errorf("First = %v, want %v (first real error by index)", err, b)
	}
	if err := First([]error{nil, ErrNotRun}); !errors.Is(err, ErrNotRun) {
		t.Errorf("First = %v, want ErrNotRun when nothing else failed", err)
	}
}
