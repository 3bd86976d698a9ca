package sim

// Clone recycling. A warm snapshot hands every run a deep clone (two
// allocations per flash block, plus the tables), and batch/fleet
// executions cut thousands of them back to back — clone churn becomes
// the allocator's dominant load well before it becomes a correctness
// problem. The free-list below recycles completed runners: Release
// parks a runner, Acquire re-seeds a parked one from the snapshot
// master through the same full copyFrom a Clone runs (device, FTL,
// index, buffer), which reuses every backing array instead of
// allocating them. After each worker's first run a snapshot serves
// clones with zero heap growth, and the number of live clones is
// bounded by the number of workers — not by the batch or fleet size. A
// process-wide gauge tracks that bound so tests can assert it.

import (
	"sync"

	"cagc/internal/trace"
)

// CloneStats is a snapshot of the process-wide clone gauge.
type CloneStats struct {
	Fresh       uint64 // clones cut from a snapshot master
	Recycled    uint64 // runners re-seeded from the free-list
	Live        int    // acquired and not yet released
	Peak        int    // high-water mark of Live since the last reset
	Reseeds     uint64 // re-seeds (== Recycled acquires)
	ReseedBytes uint64 // bytes copied by those re-seeds, one full copy each
}

var cloneGauge struct {
	mu          sync.Mutex
	fresh       uint64
	recycled    uint64
	live        int
	peak        int
	reseeds     uint64
	reseedBytes uint64
}

func gaugeAcquire(recycled bool) {
	g := &cloneGauge
	g.mu.Lock()
	if recycled {
		g.recycled++
	} else {
		g.fresh++
	}
	g.live++
	if g.live > g.peak {
		g.peak = g.live
	}
	g.mu.Unlock()
}

func gaugeReseed(bytes int) {
	g := &cloneGauge
	g.mu.Lock()
	g.reseeds++
	g.reseedBytes += uint64(bytes)
	g.mu.Unlock()
}

func gaugeRelease() {
	g := &cloneGauge
	g.mu.Lock()
	g.live--
	g.mu.Unlock()
}

// CloneGaugeStats returns the process-wide clone accounting.
func CloneGaugeStats() CloneStats {
	g := &cloneGauge
	g.mu.Lock()
	defer g.mu.Unlock()
	return CloneStats{
		Fresh:       g.fresh,
		Recycled:    g.recycled,
		Live:        g.live,
		Peak:        g.peak,
		Reseeds:     g.reseeds,
		ReseedBytes: g.reseedBytes,
	}
}

// ResetCloneGauge zeroes the counters and the peak (tests). Live is
// preserved — it reflects runners actually outstanding.
func ResetCloneGauge() {
	g := &cloneGauge
	g.mu.Lock()
	g.fresh, g.recycled = 0, 0
	g.reseeds, g.reseedBytes = 0, 0
	g.peak = g.live
	g.mu.Unlock()
}

// SetFreeListCap bounds how many completed runners the snapshot parks
// for recycling (default GOMAXPROCS at snapshot build). Workers each
// hold at most one live clone, so the cap never needs to exceed the
// worker count; 0 disables recycling entirely.
func (s *Snapshot) SetFreeListCap(n int) {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	s.freeCap = n
	if len(s.free) > n {
		// Drop the references too: a runner left in the backing array
		// would stay reachable for the snapshot's life.
		clear(s.free[n:])
		s.free = s.free[:n]
	}
	s.mu.Unlock()
}

// Acquire returns an independent warm runner adopting cfg: a parked
// runner from the free-list re-seeded from the master, or a fresh clone
// when none is parked. Pair with Release when the run completes;
// results are bit-identical either way. The build-affecting parameters
// must match the snapshot's; QueueDepth is replay-only and may differ
// (a queue-depth sweep shares one warm state). For a stateful victim
// policy the snapshot's policy state is the one that carries over —
// cfg's policy instance contributes only its name, so it must be
// constructed with the same seed.
func (s *Snapshot) Acquire(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if err := s.compatible(cfg); err != nil {
		return nil, err
	}
	var r *Runner
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	}
	s.mu.Unlock()
	recycled := r != nil
	if recycled {
		gaugeReseed(r.copyFrom(s.master))
	} else {
		r = s.master.Clone()
	}
	gaugeAcquire(recycled)
	return adopt(r, cfg), nil
}

// Release parks r for recycling by a later Acquire (up to the
// free-list cap; beyond it the runner is simply dropped). Only release
// runners whose replay completed — a failed run's state is not worth
// recycling, and dropping it costs one fresh clone.
func (s *Snapshot) Release(r *Runner) {
	if r == nil {
		return
	}
	gaugeRelease()
	s.mu.Lock()
	if len(s.free) < s.freeCap {
		s.free = append(s.free, r)
	}
	s.mu.Unlock()
}

// RunWarmRecycled is Run starting from a warm snapshot: acquire
// (recycling a parked runner when available), replay spec's generator,
// release. Given a snapshot keyed to cfg and spec's precondition
// parameters, the Result is bit-identical to Run(cfg, spec); clone
// residency stays bounded by the number of concurrent callers.
func RunWarmRecycled(snap *Snapshot, cfg Config, spec trace.Spec) (*Result, error) {
	return Measure(snap, cfg, spec, Measured{})
}
