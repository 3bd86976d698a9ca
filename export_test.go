package cagc

import "container/list"

// setCapacity resizes the registry, evicting LRU-first if the new
// capacity is below the current population. Capacities below 1 clamp
// to 1: a zero-size cache is ColdStart's job.
func (c *warmCacheT) setCapacity(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = n
	for c.lru.Len() > c.capacity {
		c.evictOldest()
	}
}

// ResetWarmCache drops every cached snapshot and zeroes the counters
// (cold-vs-warm tests and benchmarks). Capacity is preserved.
func ResetWarmCache() {
	warmCache.mu.Lock()
	defer warmCache.mu.Unlock()
	warmCache.entries = map[string]*warmEntry{}
	warmCache.lru = list.New()
	warmCache.hits, warmCache.misses, warmCache.evictions = 0, 0, 0
}
