package cagc

// Warm-state snapshot cache. Every point of a sweep used to rebuild and
// re-precondition an identical SSD; the cache builds each distinct warm
// state once (sim.NewSnapshot) and serves every later run a clone via
// the process-wide parked list (sim.Measure), so steady-state
// serving allocates no fresh clone per run beyond the worker count.
// Results are bit-identical to cold runs — the clone
// layer reproduces device, FTL, index, buffer, and timeline state
// exactly — so figures never change, only wall-clock does.
//
// The key covers exactly what the preconditioned state depends on:
// device configuration, FTL options, utilization, buffer size, and the
// precondition-relevant workload parameters (logical pages, dedup
// mixture, precondition seed). The measured-trace parameters — Seed,
// Requests, arrival process — and QueueDepth (replay-only) are
// excluded, which is what lets seed sweeps and queue-depth curves share
// one snapshot. A stateful victim policy (ftl.ClonablePolicy) folds its
// construction seed into the key, because its PRNG position is part of
// the warm state.
//
// Concurrency: distinct keys build in parallel (each entry has its own
// once), so the cache composes with RunBatch fan-out instead of
// serializing it; concurrent requests for the same key share one build.
//
// Retention is a keyed LRU registry: at most Capacity snapshots stay
// resident (default 64), and inserting past capacity evicts the least
// recently used entry. An evicted snapshot that is
// still building completes its build for the requests already waiting
// on it; the registry just stops retaining it, so a later request
// rebuilds. For very large DeviceBytes prefer Params.ColdStart (or the
// CLIs' -coldstart flag), which bypasses the cache entirely.

import (
	"container/list"
	"fmt"
	"sync"

	"cagc/internal/ftl"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// defaultWarmCapacity is the snapshot registry's default size. The
// full evaluation (figures at its defaults) makes 49 simulations over
// 37 distinct warm states, verify alone 21 over fewer, so 64 holds the
// evaluation with room to grow and preconditions each state once. The
// bound keeps an unbounded sweep from accumulating snapshots forever.
const defaultWarmCapacity = 64

// CacheStats reports warm-state snapshot cache activity.
type CacheStats struct {
	Hits      uint64 // runs served by cloning a cached snapshot
	Misses    uint64 // runs that built (and cached) a new snapshot
	Evictions uint64 // snapshots dropped by the LRU policy
	Snapshots int    // distinct warm states currently cached
	Capacity  int    // registry size limit (snapshots, not bytes)
}

type warmEntry struct {
	once sync.Once
	snap *sim.Snapshot
	err  error
	key  string        // back-pointer so eviction can delete by element
	elem *list.Element // position in the LRU list; nil once evicted
}

type warmCacheT struct {
	mu        sync.Mutex
	entries   map[string]*warmEntry
	lru       *list.List // front = most recently used; values are *warmEntry
	capacity  int
	hits      uint64
	misses    uint64
	evictions uint64
}

var warmCache = warmCacheT{
	entries:  map[string]*warmEntry{},
	lru:      list.New(),
	capacity: defaultWarmCapacity,
}

// get returns the snapshot for key, building it at most once per
// residency. Build errors are cached too: a configuration that cannot
// precondition fails identically on every run, warm or cold.
func (c *warmCacheT) get(key string, build func() (*sim.Snapshot, error)) (*sim.Snapshot, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
	} else {
		c.misses++
		e = &warmEntry{key: key}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		for c.lru.Len() > c.capacity {
			c.evictOldest()
		}
	}
	c.mu.Unlock()
	e.once.Do(func() { e.snap, e.err = build() })
	return e.snap, e.err
}

// evictOldest drops the least recently used entry. Callers hold c.mu.
// The entry itself stays valid for requests already holding it (its
// once still yields the built snapshot); it is simply no longer
// findable, so the next request for its key rebuilds.
func (c *warmCacheT) evictOldest() {
	back := c.lru.Back()
	if back == nil {
		return
	}
	victim := back.Value.(*warmEntry)
	c.lru.Remove(back)
	victim.elem = nil
	delete(c.entries, victim.key)
	c.evictions++
}

// WarmCacheStats returns the process-wide snapshot cache counters.
func WarmCacheStats() CacheStats {
	warmCache.mu.Lock()
	defer warmCache.mu.Unlock()
	return CacheStats{
		Hits:      warmCache.hits,
		Misses:    warmCache.misses,
		Evictions: warmCache.evictions,
		Snapshots: len(warmCache.entries),
		Capacity:  warmCache.capacity,
	}
}

// warmKey identifies one warm state; see the package comment above for
// the keying rule.
func warmKey(cfg sim.Config, spec trace.Spec, policySeed int64) string {
	o := cfg.Options
	pol := ""
	if o.Policy != nil {
		pol = o.Policy.Name()
		if _, stateful := o.Policy.(ftl.ClonablePolicy); stateful {
			pol = fmt.Sprintf("%s#%d", pol, policySeed)
		}
	}
	o.Policy = nil
	pseed := spec.Seed
	if spec.PrecondSeed != 0 {
		pseed = spec.PrecondSeed
	}
	return fmt.Sprintf("dev=%+v opts=%+v pol=%s util=%g buf=%d pre=%d/%g/%g/%d/%d",
		cfg.Device, o, pol, cfg.Utilization, cfg.BufferPages,
		spec.LogicalPages, spec.DedupRatio, spec.ContentSkew, spec.ContentPool, pseed)
}

// warmSnapshot resolves the warm state of cfg and spec through the
// registry, building it on the first request for its key.
func warmSnapshot(cfg sim.Config, spec trace.Spec, policySeed int64) (*sim.Snapshot, error) {
	return warmCache.get(warmKey(cfg, spec, policySeed), func() (*sim.Snapshot, error) {
		return sim.NewSnapshot(cfg, spec)
	})
}

// measure is the back half of every single-device entry mode: Run,
// ReplayTrace/ReplayFile and RunScenario. The warm snapshot comes from
// the registry unless the caller opted out (ColdStart); sim.Measure
// then acquires a runner, replays m and releases the runner to the
// parked list, so per-run allocation stays flat and clone residency
// stays bounded by the number of concurrent runs.
func measure(cfg sim.Config, spec trace.Spec, p Params, m sim.Measured) (*Result, error) {
	var snap *sim.Snapshot
	if !p.ColdStart {
		var err error
		if snap, err = warmSnapshot(cfg, spec, p.Seed); err != nil {
			return nil, err
		}
	}
	return sim.Measure(snap, cfg, spec, m)
}
