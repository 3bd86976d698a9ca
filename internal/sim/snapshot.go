package sim

import (
	"fmt"
	"runtime"
	"sync"

	"cagc/internal/buffer"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/trace"
)

// Warm-state snapshots. Preconditioning dominates the wall-clock of
// short measured runs (the fill is O(logical pages) regardless of how
// few requests are measured), and sweeps re-derive the identical warm
// state for every point. A Snapshot captures one preconditioned Runner
// and hands out deep clones, so a sweep pays the fill once. The
// contract is bit-identity: a run replayed on a clone produces exactly
// the Result a cold build-precondition-replay run would.

// Snapshot is a preconditioned SSD frozen at its settle time. The
// captured runner is pristine — it is only ever cloned, never replayed
// directly — so every NewRunner call starts from the identical state.
// Snapshot is safe for concurrent NewRunner / Acquire / Release calls
// once built.
type Snapshot struct {
	cfg    Config     // normalized build configuration
	offset event.Time // precondition settle time
	master *Runner

	mu      sync.Mutex // guards free
	free    []*Runner  // recycled clones (see recycle.go)
	freeCap int
}

// copyFrom makes r equal src layer by layer — device, FTL, write
// buffer, rebound to each other — and returns the bytes copied. It is
// the one state copy under every warm run: cloning is copyFrom into an
// empty Runner (every array allocated), re-seeding a recycled runner is
// the same full copy into one that already holds the arrays. See
// ftl.FTL.CopyFrom for the bit-identity contract.
func (r *Runner) copyFrom(src *Runner) int {
	if r.dev == nil {
		r.dev, r.f = new(flash.Device), new(ftl.FTL)
	}
	n := r.dev.CopyFrom(src.dev)
	n += r.f.CopyFrom(src.f, r.dev)
	if src.buf == nil {
		r.buf = nil
	} else {
		if r.buf == nil {
			r.buf = new(buffer.WriteBuffer)
		}
		n += r.buf.CopyFrom(src.buf, r.f)
	}
	r.cfg = src.cfg
	r.tr = src.tr
	return n
}

// Clone returns a deep, independent copy of the runner.
func (r *Runner) Clone() *Runner {
	c := new(Runner)
	c.copyFrom(r)
	return c
}

// NewSnapshot builds a runner for cfg and runs spec's preconditioning
// fill (unless cfg.SkipPrecondition), capturing the warm state. Only
// the precondition-relevant parts of spec matter here — LogicalPages,
// DedupRatio, ContentSkew, ContentPool, and the precondition seed; the
// measured-trace parameters (request count, arrival process, Seed) may
// differ freely between the snapshot and later RunWarm calls.
func NewSnapshot(cfg Config, spec trace.Spec) (*Snapshot, error) {
	// Tracers never trace the master build: the fill is shared state,
	// not part of any one run. A traced run served from this snapshot
	// installs its tracer on its clone (NewRunner below), so its trace
	// covers exactly the replay — and tracing being observational, the
	// replay itself is bit-identical either way.
	cfg.Tracer = nil
	// Deadlines never bound the master build either: the fill is shared
	// by every run the snapshot will serve, so one caller's context must
	// not cancel (or poison the cache entry for) everyone else's. A
	// bounded run's deadline applies to its own replay, via the cfg it
	// passes to NewRunner/Acquire.
	cfg.Ctx = nil
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	if spec.LogicalPages != r.LogicalPages() {
		return nil, fmt.Errorf("sim: workload spec covers %d logical pages, device exports %d",
			spec.LogicalPages, r.LogicalPages())
	}
	var offset event.Time
	if !cfg.SkipPrecondition {
		pre, err := trace.NewPreconditioner(spec)
		if err != nil {
			return nil, err
		}
		if offset, err = r.Precondition(pre); err != nil {
			return nil, err
		}
	}
	return &Snapshot{
		cfg:     cfg.withDefaults(),
		offset:  offset,
		master:  r,
		freeCap: runtime.GOMAXPROCS(0),
	}, nil
}

// Offset returns the precondition settle time — the arrival-time shift
// a replay over this snapshot must use.
func (s *Snapshot) Offset() event.Time { return s.offset }

// NewRunner returns an independent warm runner adopting cfg. The
// build-affecting parameters must match the snapshot's; QueueDepth is
// replay-only and may differ (a queue-depth sweep shares one warm
// state). For a stateful victim policy the snapshot's policy state is
// the one that carries over — cfg's policy instance contributes only
// its name, so it must be constructed with the same seed.
func (s *Snapshot) NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if err := s.compatible(cfg); err != nil {
		return nil, err
	}
	return adopt(s.master.Clone(), cfg), nil
}

// adopt hands r — just copied from the snapshot master — to a run
// under cfg.
func adopt(r *Runner, cfg Config) *Runner {
	r.cfg = cfg
	r.SetTracer(cfg.Tracer)
	return r
}

// compatible rejects configurations whose warm state would differ from
// the snapshot's.
func (s *Snapshot) compatible(cfg Config) error {
	a, b := s.cfg, cfg
	a.QueueDepth, b.QueueDepth = 0, 0
	// Tracing is observational; a snapshot serves traced and untraced
	// runs alike. A context only bounds wall-clock, never what a
	// completed run computes.
	a.Tracer, b.Tracer = nil, nil
	a.Ctx, b.Ctx = nil, nil
	an, bn := "", ""
	if a.Options.Policy != nil {
		an = a.Options.Policy.Name()
	}
	if b.Options.Policy != nil {
		bn = b.Options.Policy.Name()
	}
	a.Options.Policy, b.Options.Policy = nil, nil
	if an != bn || a != b {
		return fmt.Errorf("sim: snapshot built for %+v (policy %q) cannot serve %+v (policy %q)", a, an, b, bn)
	}
	return nil
}

// RunWarm is Run starting from a warm snapshot: clone, replay, check
// invariants. Given a snapshot keyed to cfg and spec's precondition
// parameters, the Result is bit-identical to Run(cfg, spec).
func RunWarm(snap *Snapshot, cfg Config, spec trace.Spec) (*Result, error) {
	r, err := snap.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return replayOn(r, snap.offset, spec)
}

// replayOn runs spec's measured trace on a preconditioned runner and
// checks post-run invariants — the shared back half of Run, RunWarm and
// RunWarmRecycled. A long trace is generated one ring ahead of the
// replay on its own goroutine (trace.Ahead); the deferred release frees
// the producer on every exit, errors and panics included.
func replayOn(r *Runner, offset event.Time, spec trace.Spec) (*Result, error) {
	if spec.LogicalPages != r.LogicalPages() {
		return nil, fmt.Errorf("sim: workload spec covers %d logical pages, device exports %d",
			spec.LogicalPages, r.LogicalPages())
	}
	gen, err := trace.NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	src, release := trace.Ahead(gen, spec.Requests, trace.StreamOptions{Tracer: r.tr})
	defer release()
	res, err := r.Replay(src, offset, spec.Name)
	if err != nil {
		return nil, err
	}
	if err := r.f.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sim: post-run invariant violation: %w", err)
	}
	return res, nil
}
