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
	Released    uint64 // runners returned (recyclable or dropped)
	Live        int    // acquired and not yet released
	Peak        int    // high-water mark of Live since the last reset
	Reseeds     uint64 // re-seeds (== Recycled acquires)
	ReseedBytes uint64 // bytes copied by those re-seeds, one full copy each
}

var cloneGauge struct {
	mu          sync.Mutex
	fresh       uint64
	recycled    uint64
	released    uint64
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
	g.released++
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
		Released:    g.released,
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
	g.fresh, g.recycled, g.released = 0, 0, 0
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

// Acquire returns a warm runner adopting cfg, exactly like NewRunner,
// but served from the snapshot's clone free-list when a recycled
// runner is available. Pair with Release when the run completes;
// results are bit-identical either way.
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

// RunWarmRecycled is RunWarm through the snapshot's clone free-list:
// acquire (recycling a parked runner when available), replay, release.
// Results are bit-identical to RunWarm and to a cold Run; this is the
// path batch and fleet executions use so clone residency stays bounded
// by the worker count.
func RunWarmRecycled(snap *Snapshot, cfg Config, spec trace.Spec) (*Result, error) {
	r, err := snap.Acquire(cfg)
	if err != nil {
		return nil, err
	}
	released := false
	defer func() {
		if !released {
			// An error or a panic: keep the runner out of the free-list,
			// but keep the gauge balanced — it was acquired, it is no
			// longer live.
			gaugeRelease()
		}
	}()
	res, err := replayOn(r, snap.offset, spec)
	if err != nil {
		return nil, err
	}
	released = true
	snap.Release(r)
	return res, nil
}
