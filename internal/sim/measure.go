package sim

import (
	"fmt"

	"cagc/internal/event"
	"cagc/internal/trace"
)

// Measured is what a measured run replays, beyond its device config.
// The zero value replays the spec's own generator.
type Measured struct {
	// Src is the measured request stream; nil generates spec's trace,
	// one ring ahead of the replay (trace.Ahead).
	Src trace.Source
	// Label is the Result's workload name; "" means spec.Name.
	Label string
	// Tenants, when set, attributes each request to a tenant range
	// (Runner.SetTenants).
	Tenants []trace.TenantRange
}

// Measure is the back half of every measured run. The runner is
// acquired from snap, or, when snap is nil, built from cfg and
// preconditioned with spec. Then the tenants are installed, m's source
// is replayed, the post-run invariants are checked and the runner is
// released. A run that fails
// or panics is dropped rather than parked, and the clone gauge stays
// balanced either way.
func Measure(snap *Snapshot, cfg Config, spec trace.Spec, m Measured) (*Result, error) {
	if snap == nil {
		r, offset, err := coldRunner(cfg, spec)
		if err != nil {
			return nil, err
		}
		return replayOn(r, offset, spec, m)
	}
	r, err := snap.Acquire(cfg)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if ok {
			snap.Release(r)
		} else {
			// An error or a panic: keep the runner out of the free-list,
			// but keep the gauge balanced — it was acquired, it is no
			// longer live.
			gaugeRelease()
		}
	}()
	res, err := replayOn(r, snap.offset, spec, m)
	ok = err == nil
	return res, err
}

// coldRunner builds a runner for cfg and runs spec's preconditioning
// fill, returning the settle time the measured replay starts from.
func coldRunner(cfg Config, spec trace.Spec) (*Runner, event.Time, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, 0, err
	}
	pre, err := trace.NewPreconditioner(spec)
	if err != nil {
		return nil, 0, err
	}
	offset, err := r.Precondition(pre)
	if err != nil {
		return nil, 0, err
	}
	return r, offset, nil
}

// replayOn replays m on a preconditioned runner and checks the post-run
// invariants. A generated trace runs one ring ahead of the replay on
// its own goroutine; the deferred release frees the producer on every
// exit, errors and panics included.
func replayOn(r *Runner, offset event.Time, spec trace.Spec, m Measured) (*Result, error) {
	if spec.LogicalPages != r.LogicalPages() {
		return nil, fmt.Errorf("sim: workload spec covers %d logical pages, device exports %d",
			spec.LogicalPages, r.LogicalPages())
	}
	r.SetTenants(m.Tenants)
	src, label := m.Src, m.Label
	if label == "" {
		label = spec.Name
	}
	if src == nil {
		gen, err := trace.NewGenerator(spec)
		if err != nil {
			return nil, err
		}
		var release func()
		src, release = trace.Ahead(gen, spec.Requests, trace.StreamOptions{Tracer: r.tr})
		defer release()
	}
	res, err := r.Replay(src, offset, label)
	if err != nil {
		return nil, err
	}
	if err := r.f.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sim: post-run invariant violation: %w", err)
	}
	return res, nil
}
