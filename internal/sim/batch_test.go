package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cagc/internal/ftl"
	"cagc/internal/pool"
	"cagc/internal/trace"
)

// batchRun is one run of a batch: Snap, when non-nil, serves it warm
// from that snapshot; nil builds it cold.
type batchRun struct {
	Snap *Snapshot
	Cfg  Config
	Spec trace.Spec
}

// runBatch executes runs the way the root package's batch engine does:
// one pool.Run task per run, warm runs recycled through the snapshot's
// free-list, results and errors addressed by index. results[i] is
// non-nil exactly where errs[i] is nil.
func runBatch(runs []batchRun, workers int) (results []*Result, errs []error) {
	results = make([]*Result, len(runs))
	errs = pool.Run(len(runs), pool.Options{Workers: workers}, func(i int) error {
		r := runs[i]
		res, err := Measure(r.Snap, r.Cfg, r.Spec, Measured{})
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}).Errs
	return results, errs
}

// batchRuns builds a representative batch: n seed-varied warm runs off
// one shared snapshot plus one cold run, the shape a sweep harness
// produces.
func batchRuns(t *testing.T, n int) []batchRun {
	t.Helper()
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]batchRun, 0, n+1)
	for i := 0; i < n; i++ {
		s := spec
		s.Seed = int64(100 + i)
		runs = append(runs, batchRun{Snap: snap, Cfg: cfg, Spec: s})
	}
	runs = append(runs, batchRun{Cfg: cfg, Spec: spec}) // cold slot
	return runs
}

// A batch of warm and cold runs on the pool must be byte-identical to
// cold serial execution at every worker count: recycled clones handed
// between workers carry no state from the run before.
// reflect.DeepEqual over *Result sees every histogram bucket and the
// latency timeline, so this is the strongest equality Go can state.
func TestRunBatchWorkerCountInvariance(t *testing.T) {
	runs := batchRuns(t, 6)
	serial := make([]*Result, len(runs))
	for i, r := range runs {
		var err error
		if serial[i], err = Run(r.Cfg, r.Spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := CloneGaugeStats()
			got, errs := runBatch(runs, workers)
			if errs != nil {
				t.Fatalf("errs = %v, want nil", errs)
			}
			for i := range runs {
				if !reflect.DeepEqual(serial[i], got[i]) {
					t.Fatalf("run %d diverged from serial execution at %d workers", i, workers)
				}
			}
			if live := CloneGaugeStats().Live - before.Live; live != 0 {
				t.Fatalf("batch left %d clones live", live)
			}
		})
	}
}

// A failing run reports at its own index, completed runs keep their
// results, and undispatched slots carry pool.ErrNotRun — the batch
// always says exactly which runs finished.
func TestRunBatchPerRunErrors(t *testing.T) {
	runs := batchRuns(t, 3)
	bad := runs[1]
	bad.Cfg.Utilization = 0.45 // incompatible with the snapshot's build
	runs[1] = bad
	results, errs := runBatch(runs, 1)
	if errs == nil {
		t.Fatal("errs = nil, want per-run errors")
	}
	if len(errs) != len(runs) {
		t.Fatalf("len(errs) = %d, want %d", len(errs), len(runs))
	}
	if errs[0] != nil || results[0] == nil {
		t.Errorf("run 0: err %v, result %v; want completed", errs[0], results[0])
	}
	if errs[1] == nil || errors.Is(errs[1], pool.ErrNotRun) {
		t.Errorf("errs[1] = %v, want the run's own failure", errs[1])
	}
	if results[1] != nil {
		t.Error("failed run left a non-nil result")
	}
	for i := 2; i < len(runs); i++ {
		if !errors.Is(errs[i], pool.ErrNotRun) {
			t.Errorf("errs[%d] = %v, want ErrNotRun (serial dispatch stops at the failure)", i, errs[i])
		}
		if results[i] != nil {
			t.Errorf("undispatched run %d has a result", i)
		}
	}
}
