package sim

// Clone recycling. A warm snapshot hands every run a deep clone (two
// allocations per flash block, plus the tables), and batch/fleet
// executions cut thousands of them back to back — clone churn becomes
// the allocator's dominant load well before it becomes a correctness
// problem. One process-wide list recycles completed runners: Release
// parks a runner from any snapshot, Acquire pops any parked runner and
// re-seeds it from its own snapshot's master through the same full
// copyFrom a Clone runs (device, FTL, index, buffer), which appends into
// the runner's existing arrays instead of allocating them. A runner
// moves freely between snapshots of different geometry, scheme, buffer,
// mapping cache or policy: copyFrom makes every layer equal to the
// source whatever it held before, and grows an array only when the new
// master is larger than anything the runner held. The list is capped at
// GOMAXPROCS, so parked residency is GOMAXPROCS runners per process,
// however many warm states the process keeps; live runners are bounded
// by the number of workers. A process-wide gauge tracks both so tests
// and /metrics can assert them.

import (
	"runtime"
	"sync"

	"cagc/internal/trace"
)

// CloneStats is a snapshot of the process-wide clone gauge.
type CloneStats struct {
	Fresh       uint64 // clones cut from a snapshot master
	Recycled    uint64 // runners re-seeded from the parked list
	Live        int    // acquired and not yet released
	Peak        int    // high-water mark of Live since the last reset
	Parked      int    // runners waiting on the parked list
	Reseeds     uint64 // re-seeds (== Recycled acquires)
	ReseedBytes uint64 // bytes copied by those re-seeds, one full copy each
}

// recycler is the parked list and the gauge, under one lock.
var recycler struct {
	mu          sync.Mutex
	parked      []*Runner
	fixedCap    int  // the cap SetFreeListCap fixed, when fixed
	fixed       bool // false: the cap is GOMAXPROCS
	fresh       uint64
	recycled    uint64
	live        int
	peak        int
	reseeds     uint64
	reseedBytes uint64
}

// parkCap is the parked-list cap. Callers hold recycler.mu.
func parkCap() int {
	if recycler.fixed {
		return recycler.fixedCap
	}
	return runtime.GOMAXPROCS(0)
}

// takeParked pops the most recently parked runner (nil when none is
// parked) and counts the acquire, recycled or fresh.
func takeParked() *Runner {
	g := &recycler
	g.mu.Lock()
	defer g.mu.Unlock()
	var r *Runner
	if n := len(g.parked); n > 0 {
		r = g.parked[n-1]
		g.parked[n-1] = nil
		g.parked = g.parked[:n-1]
		g.recycled++
	} else {
		g.fresh++
	}
	g.live++
	g.peak = max(g.peak, g.live)
	return r
}

func gaugeReseed(bytes int) {
	g := &recycler
	g.mu.Lock()
	g.reseeds++
	g.reseedBytes += uint64(bytes)
	g.mu.Unlock()
}

// gaugeRelease counts a runner that is no longer live and, when park
// is set and the list has room, parks it.
func gaugeRelease(r *Runner, park bool) {
	g := &recycler
	g.mu.Lock()
	g.live--
	if park && len(g.parked) < parkCap() {
		g.parked = append(g.parked, r)
	}
	g.mu.Unlock()
}

// CloneGaugeStats returns the process-wide clone accounting.
func CloneGaugeStats() CloneStats {
	g := &recycler
	g.mu.Lock()
	defer g.mu.Unlock()
	return CloneStats{
		Fresh:       g.fresh,
		Recycled:    g.recycled,
		Live:        g.live,
		Peak:        g.peak,
		Parked:      len(g.parked),
		Reseeds:     g.reseeds,
		ReseedBytes: g.reseedBytes,
	}
}

// ResetCloneGauge zeroes the counters and the peak (tests). Live and
// Parked are preserved — they reflect runners actually held.
func ResetCloneGauge() {
	g := &recycler
	g.mu.Lock()
	g.fresh, g.recycled = 0, 0
	g.reseeds, g.reseedBytes = 0, 0
	g.peak = g.live
	g.mu.Unlock()
}

// SetFreeListCap fixes the process-wide parked-list cap at n (0
// disables recycling) in place of the GOMAXPROCS default, dropping
// parked runners beyond it. The cap is not per snapshot: s only names
// the call, which the benchmark harness's clone and re-seed kernels
// make.
func (s *Snapshot) SetFreeListCap(n int) {
	g := &recycler
	g.mu.Lock()
	g.fixed, g.fixedCap = true, max(n, 0)
	if len(g.parked) > g.fixedCap {
		// Drop the references too: a runner left in the backing array
		// would stay reachable for the process's life.
		clear(g.parked[g.fixedCap:])
		g.parked = g.parked[:g.fixedCap]
	}
	g.mu.Unlock()
}

// Acquire returns an independent warm runner adopting cfg: a parked
// runner, from this snapshot or any other, re-seeded from s's master,
// or a fresh clone when none is parked. Pair with Release when the run
// completes; results are bit-identical either way. The build-affecting
// parameters must match the snapshot's; QueueDepth is replay-only and
// may differ (a queue-depth sweep shares one warm state). For a
// stateful victim policy the snapshot's policy state is the one that
// carries over — cfg's policy instance contributes only its name, so it
// must be constructed with the same seed.
func (s *Snapshot) Acquire(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if err := s.compatible(cfg); err != nil {
		return nil, err
	}
	r := takeParked()
	if r != nil {
		gaugeReseed(r.copyFrom(s.master))
	} else {
		r = s.master.Clone()
	}
	return adopt(r, cfg), nil
}

// Release parks r on the process-wide list for a later Acquire from
// any snapshot (up to the cap; beyond it the runner is simply
// dropped). Only release runners whose replay completed — a failed
// run's state is not worth recycling, and dropping it costs one fresh
// clone. A parked runner keeps its arrays and nothing of its last run:
// its tracer, context and tenant ranges are let go here.
func (s *Snapshot) Release(r *Runner) {
	if r == nil {
		return
	}
	r.SetTracer(nil)
	r.cfg, r.tenants = Config{}, nil
	gaugeRelease(r, true)
}

// RunWarmRecycled is Run starting from a warm snapshot: acquire
// (recycling a parked runner when available), replay spec's generator,
// release. Given a snapshot keyed to cfg and spec's precondition
// parameters, the Result is bit-identical to Run(cfg, spec); clone
// residency stays bounded by the number of concurrent callers.
func RunWarmRecycled(snap *Snapshot, cfg Config, spec trace.Spec) (*Result, error) {
	return Measure(snap, cfg, spec, Measured{})
}
