package pool

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestPanicIsATaskError: a panicking task fails at its own index with a
// *PanicError carrying the value and the panicking stack, and dispatch
// stops exactly as for a returned error — every slot is the panic, nil
// (ran) or ErrNotRun (never started) — serial and parallel.
func TestPanicIsATaskError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("Run/workers=%d", workers), func(t *testing.T) {
			const n, bad = 200, 3
			var started atomic.Int64
			errs := Run(n, Options{Workers: workers}, func(i int) error {
				started.Add(1)
				if i == bad {
					panic("boom")
				}
				return nil
			}).Errs
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
