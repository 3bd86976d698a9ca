package cagc

import (
	"fmt"
	"testing"
)

func TestForEach(t *testing.T) {
	// Results land in order and all indices run exactly once.
	n := 100
	got := make([]int, n)
	if err := forEach(n, func(i int) error {
		got[i] = i + 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	// Zero tasks is a no-op.
	if err := forEach(0, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
	// The lowest-index error wins deterministically.
	err := forEach(50, func(i int) error {
		if i%10 == 3 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "boom 3" {
		t.Fatalf("err = %v, want boom 3", err)
	}
}

func TestFigure13ParallelMatchesSequential(t *testing.T) {
	// Parallel fan-out must be bit-identical to a single-threaded pass.
	p := testParams()
	p.Requests = 1200
	a, err := Figure13(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure13(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
