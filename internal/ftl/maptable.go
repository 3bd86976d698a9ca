package ftl

import (
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/flathash"
	"cagc/internal/obs"
)

// DFTL-style cached mapping. The paper (like most dedup-FTL studies)
// assumes the whole logical-to-physical map lives in controller RAM;
// on large drives it does not, and dedup adds index metadata on top.
// This optional model charges the flash traffic of mapping misses: the
// map is grouped into translation pages of mapEntriesPerPage entries,
// a cached mapping table (CMT) holds Options.MappingCache entries, and
// a miss stalls the request for a translation-page read (plus a
// program when the evicted victim page is dirty).
//
// The model is timing-only: translation pages do not occupy simulated
// data blocks (they would add ~0.2% space), so the GC results are
// unaffected — exactly the isolation an ablation wants.

// mapEntriesPerPage is how many 8-byte mapping entries fit a 4 KiB
// translation page.
const mapEntriesPerPage = 512

// cmt is the cached mapping table: an LRU over translation-page ids.
// It is one open-addressed table (page id → dirty flag) with the
// recency list threaded through the table's slots — the position map,
// dirty map, and container/list of the original implementation folded
// into a single flat structure that allocates nothing in steady state
// and clones with a flat copy.
type cmt struct {
	capPages int                 // capacity in translation pages
	pages    *flathash.Map[bool] // page id → dirty, LRU-threaded

	hits      uint64
	misses    uint64
	evictions uint64
	writeback uint64
}

func newCMT(capEntries int) *cmt {
	capPages := capEntries / mapEntriesPerPage
	if capPages < 1 {
		capPages = 1
	}
	// +1: the table momentarily holds capPages+1 entries between a miss
	// insert and the eviction that rebalances it.
	return &cmt{
		capPages: capPages,
		pages:    flathash.New[bool](capPages + 1),
	}
}

// access touches the translation page of lpn. It reports whether the
// entry was cached and, on a miss, which dirty page (if any) must be
// written back. write marks the page dirty. The hit or the miss insert
// is one table probe.
func (c *cmt) access(lpn uint64, write bool) (hit bool, evictDirty bool, evicted uint64) {
	page := lpn / mapEntriesPerPage
	s, inserted := c.pages.Put(page, write)
	if !inserted {
		c.pages.MoveToFront(s)
		c.hits++
		if write {
			*c.pages.At(s) = true
		}
		return true, false, 0
	}
	c.misses++
	c.pages.PushFront(s)
	if c.pages.ListLen() > c.capPages {
		b := c.pages.Back()
		victim := c.pages.Key(b)
		dirty := *c.pages.At(b)
		c.pages.Delete(victim)
		c.evictions++
		if dirty {
			c.writeback++
			return false, true, victim
		}
	}
	return false, false, 0
}

// chargeMapAccess stalls an operation on lpn for any translation-page
// flash traffic and returns the time the mapping entry is available.
// Translation reads land on the die the page id hashes to, modeling
// the striped translation area.
func (f *FTL) chargeMapAccess(at event.Time, lpn uint64, write bool) event.Time {
	if f.cmt == nil {
		return at
	}
	hit, evictDirty, victim := f.cmt.access(lpn, write)
	if hit {
		return at
	}
	g := f.geo
	lat := f.dev.Config().Latencies
	page := lpn / mapEntriesPerPage
	die := f.mapDie(page, g)
	if evictDirty {
		// The dirty victim writes back asynchronously on its own die;
		// the request only waits for its own translation read.
		f.dev.ReserveDie(at, f.mapDie(victim, g), lat.Program)
	}
	end := f.dev.ReserveDie(at, die, lat.Read)
	f.tr.Span(obs.TrackMap, obs.KMapStall, at, end, page)
	return end
}

// mapDie spreads translation pages over dies.
func (f *FTL) mapDie(page uint64, g flash.Geometry) flash.DieID {
	return flash.DieID((page * 2654435761) % uint64(g.Dies()))
}
