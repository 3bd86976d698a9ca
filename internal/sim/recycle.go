package sim

// Clone recycling. A warm snapshot hands every run a deep clone
// (~205 KB, ~170 allocations), and batch/fleet executions cut
// thousands of them back to back — clone churn becomes the allocator's
// dominant load well before it becomes a correctness problem. The
// free-list below recycles completed runners: Release parks a runner,
// Acquire re-seeds a parked one from the snapshot master via the
// CopyFrom chain (device, FTL, index, buffer), which reuses every
// backing array in place of a fresh Clone. After each worker's first
// run a snapshot serves clones with zero heap growth, and the number
// of live clones is bounded by the number of workers — not by the
// batch or fleet size. A process-wide gauge tracks that bound so tests
// can assert it.

import (
	"sync"
	"sync/atomic"

	"cagc/internal/event"
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
	ReseedBytes uint64 // bytes copied by those re-seeds, one full copy per fresh runner included
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

// forceFullReseed, when set, marks every recycled runner all-dirty
// before re-seeding, so Acquire exercises the full-copy path — the
// differential reference the dirty path is fuzzed against and the
// denominator of the re-seed byte-ratio guard. Testing/benchmarking
// only.
var forceFullReseed atomic.Bool

// SetForceFullReseed toggles the full-copy re-seed path for every
// subsequent recycled Acquire (testing/benchmarking only). Results are
// bit-identical either way; only the bytes copied differ.
func SetForceFullReseed(v bool) { forceFullReseed.Store(v) }

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

// enableCOW turns on chunked divergence tracking through every layer,
// so the runner's next re-seed can take the CopyDirty fast path.
// Idempotent. Only Acquire calls it, and only on a runner it has just
// re-seeded: a runner that is never recycled — cold runs, plain warm
// clones, a one-shot CLI run, each worker's first run — stays untracked
// and pays nothing beyond nil-checks on its writes.
func (r *Runner) enableCOW() {
	r.dev.EnableCOW()
	r.f.EnableCOW()
	// The write buffer's coarse dirty flag is maintained unconditionally
	// (one boolean store per op); nothing to enable.
}

// markAllCOW forces r's next reseed onto the full-copy path in every
// layer.
func (r *Runner) markAllCOW() {
	r.dev.MarkAllCOW()
	r.f.MarkAllCOW()
	if r.buf != nil {
		r.buf.MarkAllCOW()
	}
}

// reseed re-seeds r from master through the CopyDirty chain, copying
// only the chunks r's previous run dirtied, and returns the bytes
// copied. Untracked runners (or all-dirty state) degrade to the full
// CopyFrom chain; either way r ends bit-identical to the state Clone
// would produce, without the fresh heap. r must have been cloned from
// the same snapshot (same shapes) — guaranteed by the free-list, the
// only caller.
func (r *Runner) reseed(master *Runner) int {
	n := r.dev.CopyDirty(master.dev)
	n += r.f.CopyDirty(master.f, r.dev)
	switch {
	case master.buf == nil:
		r.buf = nil
	case r.buf == nil:
		r.buf = master.buf.Clone(r.f)
	default:
		n += r.buf.CopyDirty(master.buf, r.f)
	}
	r.cfg = master.cfg
	r.tr = master.tr
	return n
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
		if forceFullReseed.Load() {
			r.markAllCOW()
		}
		// A runner parked for the first time is still untracked, so this
		// re-seed is the full copy (the cost of the clone it replaces);
		// tracking starts here, from a state equal to the master, and
		// every later re-seed copies dirty chunks only.
		gaugeReseed(r.reseed(s.master))
		r.enableCOW()
	} else {
		r = s.master.Clone()
	}
	gaugeAcquire(recycled)
	r.cfg = cfg
	r.SetTracer(cfg.Tracer)
	// Replay-only state, rebuilt per run exactly as Snapshot.NewRunner
	// does: the master preconditions synchronously, so its scheduler is
	// pristine, and a recycled runner's scheduler belongs to its
	// previous run.
	r.es = event.NewSimOpts(cfg.Sched, cfg.Device.Latencies.Read)
	return r, nil
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
	res, err := replayOn(r, snap.offset, spec)
	if err != nil {
		// Keep the failed runner out of the free-list, but keep the
		// gauge balanced: it was acquired, it is no longer live.
		gaugeRelease()
		return nil, err
	}
	snap.Release(r)
	return res, nil
}
