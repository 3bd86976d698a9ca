package ftl

import (
	"testing"

	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/obs"
)

func TestCMTHitAndMiss(t *testing.T) {
	c := newCMT(2 * mapEntriesPerPage) // 2 translation pages
	// First touch of page 0: miss.
	if hit, _, _ := c.access(0, false); hit {
		t.Fatal("cold access hit")
	}
	// Same translation page: hit.
	if hit, _, _ := c.access(mapEntriesPerPage-1, false); !hit {
		t.Fatal("same-page access missed")
	}
	// Second page: miss, no eviction (capacity 2).
	if hit, dirty, _ := c.access(mapEntriesPerPage, true); hit || dirty {
		t.Fatal("unexpected hit/eviction")
	}
	// Third page: miss, evicts page 0 (clean).
	if _, dirty, _ := c.access(2*mapEntriesPerPage, false); dirty {
		t.Fatal("clean eviction flagged dirty")
	}
	// Page 1 is still resident and dirty; pushing two more pages
	// evicts it with write-back.
	sawDirty := false
	for i := uint64(3); i <= 4; i++ {
		if _, dirty, victim := c.access(i*mapEntriesPerPage, false); dirty {
			sawDirty = true
			if victim != 1 {
				t.Fatalf("dirty victim = %d, want 1", victim)
			}
		}
	}
	if !sawDirty {
		t.Fatal("dirty page evicted without write-back")
	}
}

func TestCMTMinimumOnePage(t *testing.T) {
	c := newCMT(1) // less than one page's worth of entries
	if c.capPages != 1 {
		t.Fatalf("capPages = %d", c.capPages)
	}
}

func TestMapCacheDisabledChargesNothing(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	if f.cmt != nil {
		t.Fatal("disabled cache built a table")
	}
	if end := f.chargeMapAccess(100, 0, true); end != 100 {
		t.Fatalf("disabled cache charged a map access until %v", end)
	}
}

func TestMappingCacheChargesMisses(t *testing.T) {
	o := BaselineOptions()
	o.MappingCache = mapEntriesPerPage // one translation page
	f := newFTL(t, o)
	lat := f.dev.Config().Latencies

	// First write: CMT miss -> translation read stalls the program.
	end, err := f.Write(0, 0, fpOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if end < lat.Read+lat.Program {
		t.Fatalf("first write end %v, want >= translation read + program", end)
	}
	// Second write in the same translation page: hit, no stall beyond
	// normal queueing.
	end2, err := f.Write(end, 1, fpOf(2))
	if err != nil {
		t.Fatal(err)
	}
	if end2 > end+lat.Program+lat.Read {
		t.Fatalf("hit write took %v", end2-end)
	}
	// The one cached translation page is the one both writes touched.
	if f.cmt.pages.Len() != 1 {
		t.Fatalf("%d translation pages cached, want 1", f.cmt.pages.Len())
	}
}

func TestMappingCacheUnderChurn(t *testing.T) {
	// The standard test device's map fits one translation page; use
	// 64-page blocks so the logical space spans several pages and a
	// one-page CMT has to thrash.
	cfg := flash.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerPlan: 16, PagesPerBlock: 64, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.11,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := CAGCOptions()
	o.MappingCache = mapEntriesPerPage
	f, err := New(dev, uint64(float64(cfg.UserPages())*0.7), o)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	f.SetTracer(rec)
	writes := int(f.LogicalPages()) * 3
	churn(t, f, writes, 64, 41)
	// Each write looks its mapping up once. A miss stalls on a
	// translation read; a dirty victim adds a write-back, the other
	// translation-page I/O on the die tracks.
	misses, meta := countKind(rec, obs.KMapStall), countKind(rec, obs.KDieMeta)
	if misses == 0 || misses == writes {
		t.Fatalf("cache never exercised: %d misses in %d writes", misses, writes)
	}
	if meta == misses {
		t.Fatal("no dirty write-backs under write churn")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// countKind returns how many of rec's events are of kind k.
func countKind(rec *obs.Recorder, k obs.Kind) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

func TestMappingCacheSlowsMissyWorkload(t *testing.T) {
	// The same workload must take longer in virtual time with a tiny
	// CMT than with the full map in RAM.
	run := func(cache int) event.Time {
		o := BaselineOptions()
		o.MappingCache = cache
		f := newFTL(t, o)
		return churn(t, f, int(f.LogicalPages())*2, 1<<60, 42)
	}
	full := run(0)
	tiny := run(mapEntriesPerPage)
	if tiny <= full {
		t.Fatalf("tiny CMT finished at %v, full map at %v — misses cost nothing", tiny, full)
	}
}

func TestNegativeMappingCacheRejected(t *testing.T) {
	o := BaselineOptions()
	o.MappingCache = -1
	dev := testDevice(t)
	if _, err := New(dev, 100, o); err == nil {
		t.Fatal("negative MappingCache accepted")
	}
}
