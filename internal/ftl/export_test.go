package ftl

// MapCacheStats reports cached-mapping-table activity.
type MapCacheStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// HitRatio returns hits/(hits+misses), or 0 when idle.
func (s MapCacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// MapCacheStats returns the CMT counters (zero value when the cache is
// disabled).
func (f *FTL) MapCacheStats() MapCacheStats {
	if f.cmt == nil {
		return MapCacheStats{}
	}
	return MapCacheStats{
		Hits:       f.cmt.hits,
		Misses:     f.cmt.misses,
		Evictions:  f.cmt.evictions,
		Writebacks: f.cmt.writeback,
	}
}
