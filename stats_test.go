package cagc

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// The harness fans its runs out through RunBatch: results land in
// their items' slots, and, among equally weighted items, the
// lowest-index failure is the one reported.
func TestForEach(t *testing.T) {
	// Results land in order and every index runs exactly once.
	n := 24
	var items []BatchItem
	for i := 0; i < n; i++ {
		items = append(items, BatchItem{Homes, Schemes[i%len(Schemes)], "greedy",
			Params{DeviceBytes: 16 << 20, Requests: 100, Seed: int64(i + 1)}})
	}
	b := RunBatch(items, 0)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	for i, res := range b.Results {
		if res == nil || res.Scheme != items[i].Scheme.String() {
			t.Fatalf("slot %d = %+v", i, res)
		}
	}
	// Zero items is a no-op.
	if b := RunBatch(nil, 0); b.Err() != nil || b.Completed() != 0 {
		t.Fatalf("empty batch: err %v, %d completed", b.Err(), b.Completed())
	}
	// The lowest-index error wins deterministically.
	for i := range items {
		if i%10 == 3 {
			items[i].Policy = fmt.Sprintf("boom%d", i)
		}
	}
	if err := RunBatch(items, 0).Err(); err == nil || !strings.Contains(err.Error(), `"boom3"`) {
		t.Fatalf("err = %v, want boom3's", err)
	}
}

func TestFigure13ParallelMatchesSequential(t *testing.T) {
	// The parallel batch must be bit-identical to a one-worker pass;
	// each pass builds its own warm snapshots.
	p := testParams()
	p.Requests = 1200
	pass := func(procs int) []figure13Cell {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ResetWarmCache()
		rs, err := evaluate(p, experiment{cells: figure13Cells})
		if err != nil {
			t.Fatal(err)
		}
		return figure13(p, rs)
	}
	defer ResetWarmCache()
	a, b := pass(1), pass(max(2, runtime.NumCPU()))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs between one worker and many: %+v vs %+v", i, a[i], b[i])
		}
	}
}
