package dedup

// Controller-RAM capping of the fingerprint index. Real dedup FTLs
// (CAFTL, CA-SSD) cannot hold a fingerprint for every stored page: the
// index is a cache. Evicting a fingerprint only forfeits *future*
// dedup hits against that content — reference counts and mappings are
// separate metadata and stay intact. An evicted entry simply becomes
// unindexed again; if another copy of the same content is published
// later, the two coexist as distinct contents (exactly what a real
// cache miss costs).
//
// The recency list is intrusive: prev/next slot indices inside the
// fingerprint table itself (see internal/flathash), so tracking an
// entry allocates nothing and cloning the index stays a flat copy. An
// entry can be stored in the table without being on the list — that is
// how the original lazily-built container/list behaved when entries
// were inserted while no capacity bound was active — so membership is
// always checked via InList, never assumed.

// SetCapacity bounds the number of indexed (published) fingerprints,
// evicting least-recently-used ones as needed. Zero removes the bound.
// Entries already indexed beyond the new capacity are evicted
// immediately, oldest first.
func (x *Index) SetCapacity(n int) {
	x.capacity = n
	if n > 0 && !x.lruOn {
		x.lruOn = true
		// Adopt any already-indexed entries in CID order (no better
		// recency information exists yet).
		for c := range x.entries {
			e := &x.entries[c]
			if e.ref > 0 && !e.unindexed {
				if s, ok := x.byFP.Get(uint64(e.fp)); ok {
					x.byFP.PushFront(s)
				}
			}
		}
	}
	x.enforceCapacity()
}

// Capacity returns the current bound (0 = unlimited).
func (x *Index) Capacity() int { return x.capacity }

// Evictions returns how many fingerprints were evicted under pressure.
func (x *Index) Evictions() uint64 { return x.stats.Evictions }

// touchSlot marks the entry in fingerprint-table slot s most-recently-
// used. Valid only immediately after the probe that produced s.
func (x *Index) touchSlot(s int32) {
	if x.capacity <= 0 || !x.lruOn {
		return
	}
	if x.byFP.InList(s) {
		x.byFP.MoveToFront(s)
	}
}

// touch marks c most-recently-used, locating its slot by fingerprint
// (an indexed entry's fingerprint always resolves to its own CID — two
// indexed entries can never share one).
func (x *Index) touch(c CID) {
	if x.capacity <= 0 || !x.lruOn {
		return
	}
	if s, ok := x.byFP.Get(uint64(x.entries[c].fp)); ok && x.byFP.InList(s) {
		x.byFP.MoveToFront(s)
	}
}

// trackIndexed registers a newly published/inserted entry (by its
// fingerprint-table slot) and enforces the bound.
func (x *Index) trackIndexed(s int32) {
	if x.capacity <= 0 {
		return
	}
	x.lruOn = true
	x.byFP.PushFront(s)
	x.enforceCapacity()
}

// enforceCapacity evicts LRU fingerprints until within bound. Evicted
// entries revert to unindexed: invisible to Lookup, refcounts intact.
func (x *Index) enforceCapacity() {
	if x.capacity <= 0 || !x.lruOn {
		return
	}
	for x.byFP.ListLen() > x.capacity {
		s := x.byFP.Back()
		c := *x.byFP.At(s)
		fp := x.byFP.Key(s)
		x.byFP.RemoveFromList(s)
		e := &x.entries[c]
		if e.ref > 0 && !e.unindexed {
			x.byFP.Delete(fp)
			e.unindexed = true
			x.stats.Evictions++
		}
	}
}
