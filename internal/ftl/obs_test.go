package ftl

import (
	"math/rand"
	"testing"

	"cagc/internal/event"
	"cagc/internal/obs"
)

// The zero-cost-when-off contract, measured where it matters: the write
// churn that exercises the full CAGC hot loop — allocation, dedup
// lookup, hash reservation, GC with fingerprint/erase overlap — must
// stay allocation-free with a nil recorder (tracing off). The flight-recorder
// variant proves even always-on tracing stays off the heap once its
// ring exists.

// churnStep runs one steady-state write through f, advancing *now and
// the RNG state. Any error fails the surrounding AllocsPerRun via ok.
func churnStep(f *FTL, now *event.Time, logical uint64, rng *rand.Rand, ok *bool) {
	lpn := uint64(rng.Int63n(int64(logical)))
	fp := fpOf(rng.Uint64() % 64)
	end, err := f.Write(*now, lpn, fp)
	if err != nil {
		*ok = false
		return
	}
	*now = end
}

func TestWriteChurnZeroAllocTracerOff(t *testing.T) {
	f := newFTL(t, CAGCOptions())
	f.SetTracer(obs.NewRecorder())
	f.SetTracer(nil) // tracing off: a nil recorder in the FTL and the device
	if f.tr != nil {
		t.Fatal("SetTracer(nil) left a recorder installed")
	}
	// Warm into steady state: GC running, tables at stable size.
	now := churn(t, f, int(f.LogicalPages())*6, 64, 17)
	rng := newChurnRNG(18)
	logical := f.LogicalPages()
	erasedBefore := f.Stats().BlocksErased
	ok := true
	allocs := testing.AllocsPerRun(500, func() {
		churnStep(f, &now, logical, rng, &ok)
	})
	if !ok {
		t.Fatal("write failed during churn")
	}
	if allocs != 0 {
		t.Fatalf("CAGC write churn with nil recorder allocated %.2f objects/op, want 0", allocs)
	}
	if f.Stats().BlocksErased == erasedBefore {
		t.Fatal("measured window saw no GC — guard did not cover the collection path")
	}
}

func TestWriteChurnZeroAllocFlightRecorder(t *testing.T) {
	f := newFTL(t, CAGCOptions())
	rec := obs.NewFlightRecorder(4096)
	f.SetTracer(rec)
	now := churn(t, f, int(f.LogicalPages())*6, 64, 17)
	rng := newChurnRNG(18)
	logical := f.LogicalPages()
	ok := true
	allocs := testing.AllocsPerRun(500, func() {
		churnStep(f, &now, logical, rng, &ok)
	})
	if !ok {
		t.Fatal("write failed during churn")
	}
	if allocs != 0 {
		t.Fatalf("CAGC write churn with flight recorder allocated %.2f objects/op, want 0", allocs)
	}
	if rec.Len() == 0 {
		t.Fatal("flight recorder captured nothing")
	}
}
