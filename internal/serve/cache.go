package serve

// Bounded result cache. Keys are the canonical job identities of
// job.go (built on cagc.ConfigKey), values are the rendered result
// documents — the exact bytes a cache miss produced, stored verbatim so
// a hit is byte-identical to the uncached run. Entry-count LRU, same
// retention discipline as the warm-snapshot registry: parameter studies
// revisit a bounded working set; an unbounded sweep must not accumulate
// documents forever.

import (
	"container/list"
	"sync"
)

// cachedResult is one finished job's reusable outcome.
type cachedResult struct {
	body    []byte // rendered result document, served verbatim
	summary string // rendered text summary
	events  uint64 // simulated events of the producing run
}

// CacheStats reports result-cache activity for /metrics.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

type cacheItem struct {
	key string
	res *cachedResult
}

type resultCache struct {
	mu        sync.Mutex
	entries   map[string]*list.Element
	lru       *list.List // front = most recently used; values are *cacheItem
	capacity  int
	hits      uint64
	misses    uint64
	evictions uint64
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		entries:  map[string]*list.Element{},
		lru:      list.New(),
		capacity: capacity,
	}
}

// get returns the cached result for key, counting a hit or miss.
func (c *resultCache) get(key string) (*cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(e)
	return e.Value.(*cacheItem).res, true
}

// put inserts (or refreshes) key, evicting LRU-first past capacity.
// Deterministic results make every insert for one key identical, so
// last-writer-wins needs no comparison.
func (c *resultCache) put(key string, res *cachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.Value.(*cacheItem).res = res
		c.lru.MoveToFront(e)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheItem{key: key, res: res})
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*cacheItem).key)
		c.evictions++
	}
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
	}
}
