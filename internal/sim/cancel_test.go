package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cagc/internal/ftl"
	"cagc/internal/trace"
)

// A pre-canceled context fails a cold run during preconditioning,
// before any result exists.
func TestRunCanceledDuringPrecondition(t *testing.T) {
	cfg := smallConfig(ftl.CAGCOptions())
	spec := specFor(t, cfg, trace.Homes, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	if _, err := Run(cfg, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// A canceled context fails a warm replay, and the acquire/release clone
// gauge returns to its pre-job value — the run neither leaks a live
// clone nor parks its aborted runner for recycling.
func TestRunWarmRecycledCanceledBalancesGauge(t *testing.T) {
	cfg := smallConfig(ftl.CAGCOptions())
	spec := specFor(t, cfg, trace.Homes, 2000)
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	before := CloneGaugeStats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := cfg
	run.Ctx = ctx
	if _, err := RunWarmRecycled(snap, run, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	after := CloneGaugeStats()
	if after.Live != before.Live {
		t.Fatalf("live clones %d != pre-job %d", after.Live, before.Live)
	}
	snap.mu.Lock()
	parked := len(snap.free)
	snap.mu.Unlock()
	if parked != 0 {
		t.Fatalf("aborted runner parked on the free-list (%d entries)", parked)
	}
	// The snapshot still serves unbounded runs after the aborted one.
	if _, err := RunWarmRecycled(snap, cfg, spec); err != nil {
		t.Fatal(err)
	}
}

// An unexpired context is purely observational: the Result is identical
// to an unbounded run's, and a snapshot built without a context serves
// context-bounded replays (Ctx is excluded from snapshot identity).
func TestRunWithLiveContextIdentical(t *testing.T) {
	cfg := smallConfig(ftl.CAGCOptions())
	spec := specFor(t, cfg, trace.Homes, 2000)
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunWarmRecycled(snap, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	bounded := cfg
	bounded.Ctx = context.Background()
	got, err := RunWarmRecycled(snap, bounded, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatal("context-bounded result differs from unbounded result")
	}
}

// NewSnapshot ignores the caller's context: the master build is shared
// state, so one submitter's dead deadline must not poison it.
func TestNewSnapshotIgnoresContext(t *testing.T) {
	cfg := smallConfig(ftl.CAGCOptions())
	spec := specFor(t, cfg, trace.Homes, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatalf("snapshot build honoured a canceled context: %v", err)
	}
	// Replays that drop the context run to completion.
	clean := cfg
	clean.Ctx = nil
	if _, err := RunWarmRecycled(snap, clean, spec); err != nil {
		t.Fatal(err)
	}
}
