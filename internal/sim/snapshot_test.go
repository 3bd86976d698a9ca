package sim

import (
	"reflect"
	"testing"

	"cagc/internal/ftl"
	"cagc/internal/trace"
)

// cagcOptions builds the full CAGC mechanism set used by the snapshot
// tests: GC-time dedup, hot/cold placement, plus the optional stateful
// layers (write buffer and cached mapping table are set on the Config).
func snapConfig(t *testing.T, opts ftl.Options) (Config, trace.Spec) {
	t.Helper()
	cfg := smallConfig(opts)
	return cfg, specFor(t, cfg, trace.Mail, 3000)
}

// A warm run — Acquire, replay, Release — must reproduce a cold Run
// bit for bit. reflect.DeepEqual sees every unexported histogram
// bucket, so this is the strongest equality Go can state.
func TestRunWarmMatchesColdRun(t *testing.T) {
	opts := ftl.CAGCOptions()
	cfg, spec := snapConfig(t, opts)
	cold, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a fresh clone, then a recycled one
		warm, err := Measure(snap, cfg, spec, Measured{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("clone %d diverged from cold run:\ncold %v\nwarm %v", i, cold, warm)
		}
	}
}

// The full stateful stack — write buffer, cached mapping table, random
// victim policy, closed-loop replay — must survive cloning too. Each
// run gets a fresh same-seed policy instance, exactly as a sweep
// harness constructs them (a policy's PRNG position is per-run state).
func TestRunWarmMatchesColdRunAllLayers(t *testing.T) {
	fullCfg := func(t *testing.T) (Config, trace.Spec) {
		opts := ftl.CAGCOptions()
		opts.Policy = ftl.NewRandomPolicy(7)
		opts.MappingCache = 1024
		cfg, spec := snapConfig(t, opts)
		cfg.BufferPages = 32
		cfg.QueueDepth = 8
		return cfg, spec
	}
	coldCfg, spec := fullCfg(t)
	cold, err := Run(coldCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	snapCfg, _ := fullCfg(t)
	snap, err := NewSnapshot(snapCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	warmCfg, _ := fullCfg(t)
	warm, err := RunWarmRecycled(snap, warmCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("full-stack clone diverged:\ncold %v\nwarm %v", cold, warm)
	}
}

// One snapshot serves different measured seeds and queue depths; only
// the build/precondition parameters are pinned.
func TestSnapshotServesVariedReplayParameters(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}

	seeded := spec
	seeded.Seed = 99
	cold, err := Run(cfg, seeded)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunWarmRecycled(snap, cfg, seeded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("measured-seed change over one snapshot diverged from cold run")
	}

	qdCfg := cfg
	qdCfg.QueueDepth = 4
	coldQD, err := Run(qdCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	warmQD, err := RunWarmRecycled(snap, qdCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldQD, warmQD) {
		t.Fatal("queue-depth change over one snapshot diverged from cold run")
	}
}

// A replay must never leak state back into the snapshot's master: the
// run before and the run after an interleaved replay are identical.
func TestSnapshotMasterStaysPristine(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunWarmRecycled(snap, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed = 1234
	if _, err := RunWarmRecycled(snap, cfg, other); err != nil {
		t.Fatal(err)
	}
	again, err := RunWarmRecycled(snap, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("interleaved replay mutated the snapshot master")
	}
}

// Build-affecting config changes are rejected instead of silently
// serving the wrong warm state.
func TestSnapshotRejectsIncompatibleConfig(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Utilization = 0.45
	if _, err := snap.Acquire(bad); err == nil {
		t.Fatal("utilization change accepted by snapshot")
	}
	badPol := cfg
	badPol.Options.Policy = ftl.CostBenefitPolicy{}
	if _, err := snap.Acquire(badPol); err == nil {
		t.Fatal("policy change accepted by snapshot")
	}
	qd := cfg
	qd.QueueDepth = 16
	r, err := snap.Acquire(qd)
	if err != nil {
		t.Fatalf("queue-depth change rejected: %v", err)
	}
	snap.Release(r)
}

// Runner.Clone must deep-copy: operations on the clone leave the
// original's invariants and counters untouched.
func TestRunnerCloneIsIndependent(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := trace.NewPreconditioner(spec)
	if err != nil {
		t.Fatal(err)
	}
	offset, err := r.Precondition(pre)
	if err != nil {
		t.Fatal(err)
	}
	statsBefore := r.FTL().Stats()

	clone := r.Clone()
	gen, err := trace.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Replay(gen, offset, spec.Name); err != nil {
		t.Fatal(err)
	}
	if err := clone.FTL().CheckInvariants(); err != nil {
		t.Fatalf("clone invariants after replay: %v", err)
	}
	if got := r.FTL().Stats(); got != statsBefore {
		t.Fatalf("replaying the clone mutated the original:\nbefore %+v\nafter  %+v", statsBefore, got)
	}
	if err := r.FTL().CheckInvariants(); err != nil {
		t.Fatalf("original invariants after clone replay: %v", err)
	}
}

// warmRunner acquires a runner from snap for the rest of the test and
// releases it when the test ends, keeping the clone gauge balanced.
func warmRunner(t testing.TB, snap *Snapshot, cfg Config) *Runner {
	t.Helper()
	r, err := snap.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snap.Release(r) })
	return r
}

// Runner.Clone is the per-run cost a batch pays instead of a full build
// + precondition; it must stay cheap and flat. 170 allocs/op measured
// at this config (one per flat structure and slice header, none
// proportional to device capacity); the bound leaves headroom for small
// structural drift while catching any per-page or per-block copy
// sneaking in.
func TestCloneAllocBudget(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		_ = snap.master.Clone()
	})
	t.Logf("Runner.Clone: %.0f allocs/op", allocs)
	if allocs > 220 {
		t.Errorf("Runner.Clone allocates %.0f/op, budget 220 — a deep or per-page copy crept in", allocs)
	}
}

// BenchmarkClone prices the snapshot fan-out primitive on its own:
// cutting a fresh runner from a preconditioned master.
func BenchmarkClone(b *testing.B) {
	cfg := smallConfig(ftl.CAGCOptions())
	r, err := NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := trace.Preset(trace.Mail, r.LogicalPages(), 3000, 42)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = snap.master.Clone()
	}
}
