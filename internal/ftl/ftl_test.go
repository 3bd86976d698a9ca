package ftl

import (
	"errors"
	"math/rand"
	"testing"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
)

// testDevice: 2 channels x 2 dies x 16 blocks x 8 pages = 1024 pages.
func testDevice(t *testing.T) *flash.Device {
	t.Helper()
	cfg := flash.Config{
		Geometry: flash.Geometry{
			Channels:      2,
			DiesPerChan:   2,
			PlanesPerDie:  1,
			BlocksPerPlan: 16,
			PagesPerBlock: 8,
			PageSize:      4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.11,
	}
	d, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newFTL(t *testing.T, opts Options) *FTL {
	t.Helper()
	dev := testDevice(t)
	logical := uint64(float64(dev.Config().UserPages()) * 0.78)
	f, err := New(dev, logical, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func fpOf(i uint64) dedup.Fingerprint { return dedup.OfUint64(i) }

func TestNewValidation(t *testing.T) {
	dev := testDevice(t)
	if _, err := New(dev, 0, Defaults()); err == nil {
		t.Error("zero logical pages accepted")
	}
	if _, err := New(dev, uint64(dev.Config().UserPages()), Defaults()); err == nil {
		t.Error("logical == user pages accepted (no GC headroom)")
	}
	bad := Defaults()
	bad.Watermark = 0.95
	if _, err := New(dev, 100, bad); err == nil {
		t.Error("watermark 0.95 accepted")
	}
	bad = Defaults()
	bad.RefThreshold = -1
	if _, err := New(dev, 100, bad); err == nil {
		t.Error("negative threshold accepted")
	}
	bad = Defaults()
	bad.HashAt = HashAtMigrateSerial + 1
	if _, err := New(dev, 100, bad); err == nil {
		t.Error("unknown HashAt accepted")
	}
}

func TestSchemeNames(t *testing.T) {
	if BaselineOptions().SchemeName() != "Baseline" {
		t.Error("baseline name")
	}
	if InlineDedupeOptions().SchemeName() != "Inline-Dedupe" {
		t.Error("inline name")
	}
	if CAGCOptions().SchemeName() != "CAGC" {
		t.Error("cagc name")
	}
	o := CAGCOptions()
	o.HashAt = HashAtMigrateSerial
	if o.SchemeName() != "CAGC" {
		t.Error("serial ablation name")
	}
	o.HotCold = false
	if o.SchemeName() != "CAGC(no-placement)" {
		t.Error("placement ablation name")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	end, err := f.Write(0, 5, fpOf(42))
	if err != nil {
		t.Fatal(err)
	}
	if end != 16*event.Microsecond {
		t.Fatalf("write end = %v, want 16us", end)
	}
	rend, err := f.Read(end, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rend != end+12*event.Microsecond {
		t.Fatalf("read end = %v", rend)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadUnmapped(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	end, err := f.Read(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if end != 100+f.Options().CtrlLatency {
		t.Fatalf("unmapped read end = %v", end)
	}
}

func TestBadLPNRejected(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	bad := f.LogicalPages()
	if _, err := f.Write(0, bad, fpOf(1)); !errors.Is(err, ErrBadLPN) {
		t.Errorf("write: %v", err)
	}
	if _, err := f.Read(0, bad); !errors.Is(err, ErrBadLPN) {
		t.Errorf("read: %v", err)
	}
	if _, err := f.Trim(0, bad); !errors.Is(err, ErrBadLPN) {
		t.Errorf("trim: %v", err)
	}
}

func TestOverwriteInvalidates(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	if _, err := f.Write(0, 3, fpOf(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, 3, fpOf(2)); err != nil {
		t.Fatal(err)
	}
	_, valid, invalid := f.Device().CountStates()
	if valid != 1 || invalid != 1 {
		t.Fatalf("valid=%d invalid=%d, want 1/1", valid, invalid)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The invalidation was a refcount-1 death.
	if got := f.RefDist.Counts(); got[0] != 1 {
		t.Fatalf("refdist = %v", got)
	}
}

func TestTrimSemantics(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	if _, err := f.Write(0, 9, fpOf(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Trim(1, 9); err != nil {
		t.Fatal(err)
	}
	_, valid, invalid := f.Device().CountStates()
	if valid != 0 || invalid != 1 {
		t.Fatalf("after trim: valid=%d invalid=%d", valid, invalid)
	}
	// Trimming again (unmapped) is a cheap no-op.
	end, err := f.Trim(10, 9)
	if err != nil || end != 10+f.Options().CtrlLatency {
		t.Fatalf("re-trim: %v, %v", end, err)
	}
	// Read after trim serves unmapped.
	if _, err := f.Read(20, 9); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineStoresDuplicates(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	for lpn := uint64(0); lpn < 4; lpn++ {
		if _, err := f.Write(0, lpn, fpOf(77)); err != nil {
			t.Fatal(err)
		}
	}
	// No dedup: four physical pages.
	_, valid, _ := f.Device().CountStates()
	if valid != 4 {
		t.Fatalf("valid = %d, want 4", valid)
	}
	if f.Stats().UserPrograms != 4 {
		t.Fatalf("programs = %d", f.Stats().UserPrograms)
	}
}

func TestInlineDedupeAbsorbsDuplicates(t *testing.T) {
	f := newFTL(t, InlineDedupeOptions())
	lat := f.Device().Config().Latencies
	// First write: hash (serialized on the engine) then program.
	end, err := f.Write(0, 0, fpOf(7))
	if err != nil {
		t.Fatal(err)
	}
	if end != lat.Hash+lat.Program {
		t.Fatalf("first write end = %v, want hash+program", end)
	}
	// Duplicate to another LPN: hash + ctrl only, no program.
	end2, err := f.Write(end, 1, fpOf(7))
	if err != nil {
		t.Fatal(err)
	}
	if end2 != end+lat.Hash+f.Options().CtrlLatency {
		t.Fatalf("dup write end = %v", end2)
	}
	st := f.Stats()
	if st.UserPrograms != 1 || st.InlineDupHits != 1 || st.HashOps != 2 {
		t.Fatalf("stats = %+v", st)
	}
	_, valid, _ := f.Device().CountStates()
	if valid != 1 {
		t.Fatalf("valid = %d, want 1 (shared)", valid)
	}
	// Both LPNs read the same page.
	if _, err := f.Read(end2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(end2, 1); err != nil {
		t.Fatal(err)
	}
	// Overwriting one LPN keeps the shared page alive.
	if _, err := f.Write(end2, 0, fpOf(8)); err != nil {
		t.Fatal(err)
	}
	_, valid, invalid := f.Device().CountStates()
	if valid != 2 || invalid != 0 {
		t.Fatalf("after overwrite: valid=%d invalid=%d", valid, invalid)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInlineDedupeRefcountDeath(t *testing.T) {
	f := newFTL(t, InlineDedupeOptions())
	now := event.Time(0)
	for lpn := uint64(0); lpn < 3; lpn++ {
		end, err := f.Write(now, lpn, fpOf(9))
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	// Three references to one page; trim all three.
	for lpn := uint64(0); lpn < 3; lpn++ {
		if _, err := f.Trim(now, lpn); err != nil {
			t.Fatal(err)
		}
	}
	_, valid, invalid := f.Device().CountStates()
	if valid != 0 || invalid != 1 {
		t.Fatalf("valid=%d invalid=%d", valid, invalid)
	}
	// Figure-6 bookkeeping: one death with peak refcount 3.
	if got := f.RefDist.Counts(); got[2] != 1 || got[0] != 0 {
		t.Fatalf("refdist = %v", got)
	}
}

// newChurnRNG builds the deterministic RNG churn helpers share.
func newChurnRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// churn drives the FTL with overwrites until GC has clearly run.
func churn(t *testing.T, f *FTL, writes int, contentPool uint64, seed int64) event.Time {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	now := event.Time(0)
	logical := f.LogicalPages()
	for i := 0; i < writes; i++ {
		lpn := uint64(rng.Int63n(int64(logical)))
		fp := fpOf(rng.Uint64() % contentPool)
		end, err := f.Write(now, lpn, fp)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		now = end
	}
	return now
}

func TestGCReclaimsAndPreservesData(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	// Unique content everywhere: worst case for dedup, plain GC churn.
	now := churn(t, f, int(f.LogicalPages())*4, 1<<62, 3)
	st := f.Stats()
	if st.GCInvocations == 0 || st.BlocksErased == 0 {
		t.Fatalf("GC never ran: %+v", st)
	}
	if st.PagesMigrated == 0 {
		t.Fatalf("no pages migrated: %+v", st)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every mapped LPN still reads back consistently (Read verifies the
	// content tag against the fingerprint).
	for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
		if _, err := f.Read(now, lpn); err != nil {
			t.Fatalf("read lpn %d: %v", lpn, err)
		}
	}
	// Free pool was maintained.
	if f.FreeBlockFraction() < 0.10 {
		t.Fatalf("free fraction collapsed: %v", f.FreeBlockFraction())
	}
}

func TestCAGCDedupsDuringGC(t *testing.T) {
	f := newFTL(t, CAGCOptions())
	// Small content pool: massive duplication.
	now := churn(t, f, int(f.LogicalPages())*4, 32, 4)
	st := f.Stats()
	if st.GCDupDropped == 0 {
		t.Fatalf("GC dedup never dropped a page: %+v", st)
	}
	if st.HashOps == 0 {
		t.Fatal("no hashing during GC")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
		if _, err := f.Read(now, lpn); err != nil {
			t.Fatalf("read lpn %d: %v", lpn, err)
		}
	}
	// Dedup must have produced shared pages: live contents < mapped LPNs.
	mapped := 0
	for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
		if f.mapping[lpn] != nilSlot {
			mapped++
		}
	}
	if f.LiveContents() >= mapped {
		t.Fatalf("no sharing: %d live contents for %d mapped LPNs", f.LiveContents(), mapped)
	}
}

func TestCAGCBeatsBaselineOnDuplicateHeavyChurn(t *testing.T) {
	base := newFTL(t, BaselineOptions())
	cagc := newFTL(t, CAGCOptions())
	writes := int(base.LogicalPages()) * 4
	churn(t, base, writes, 64, 5)
	churn(t, cagc, writes, 64, 5)
	bs, cs := base.Stats(), cagc.Stats()
	if cs.BlocksErased >= bs.BlocksErased {
		t.Errorf("CAGC erased %d blocks, baseline %d — expected fewer", cs.BlocksErased, bs.BlocksErased)
	}
	if cs.PagesMigrated >= bs.PagesMigrated {
		t.Errorf("CAGC migrated %d pages, baseline %d — expected fewer", cs.PagesMigrated, bs.PagesMigrated)
	}
	if err := cagc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCAGCColdRegionPlacement(t *testing.T) {
	f := newFTL(t, CAGCOptions())
	// Many LPNs share one hot content; churn forces GC which should
	// promote the shared content to the cold region.
	churn(t, f, int(f.LogicalPages())*4, 8, 6)
	st := f.Stats()
	if st.Promotions == 0 {
		t.Fatalf("no promotions happened: %+v", st)
	}
	// At least one block must be cold-tagged with pages in it.
	foundCold := false
	for b := range f.blocks {
		if f.blocks[b].region == Cold && f.blocks[b].state != blkFree {
			foundCold = true
			break
		}
	}
	if !foundCold {
		t.Fatal("no cold block in use")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSerialVsOverlapHashTiming(t *testing.T) {
	// The overlap pipeline must never be slower than the serial one.
	mk := func(at HashAt) Stats {
		o := CAGCOptions()
		o.HashAt = at
		f := newFTL(t, o)
		churn(t, f, int(f.LogicalPages())*3, 64, 7)
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return f.Stats()
	}
	so := mk(HashAtMigrate)
	ss := mk(HashAtMigrateSerial)
	// Same logical work happens either way.
	if so.UserWritePages != ss.UserWritePages {
		t.Fatalf("different work: %d vs %d", so.UserWritePages, ss.UserWritePages)
	}
}

func TestGCDedupWithoutPlacement(t *testing.T) {
	o := CAGCOptions()
	o.HotCold = false
	f := newFTL(t, o)
	churn(t, f, int(f.LogicalPages())*3, 32, 8)
	st := f.Stats()
	if st.GCDupDropped == 0 {
		t.Fatal("dedup-only CAGC dropped nothing")
	}
	if st.Promotions != 0 {
		t.Fatalf("promotions without placement: %d", st.Promotions)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInlineDedupeUnderChurn(t *testing.T) {
	f := newFTL(t, InlineDedupeOptions())
	now := churn(t, f, int(f.LogicalPages())*3, 32, 9)
	st := f.Stats()
	if st.InlineDupHits == 0 {
		t.Fatal("no inline hits")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
		if _, err := f.Read(now, lpn); err != nil {
			t.Fatalf("read lpn %d: %v", lpn, err)
		}
	}
}

func TestTrimmedDeviceStaysConsistent(t *testing.T) {
	f := newFTL(t, CAGCOptions())
	rng := rand.New(rand.NewSource(11))
	now := event.Time(0)
	for i := 0; i < int(f.LogicalPages())*3; i++ {
		lpn := uint64(rng.Int63n(int64(f.LogicalPages())))
		var err error
		var end event.Time
		if rng.Float64() < 0.2 {
			end, err = f.Trim(now, lpn)
		} else {
			end, err = f.Write(now, lpn, fpOf(rng.Uint64()%128))
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		now = end
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	f.Write(0, 0, fpOf(1))
	f.Write(0, 1, fpOf(2))
	f.Read(0, 0)
	f.Trim(0, 1)
	st := f.Stats()
	if st.UserWritePages != 2 || st.UserReadPages != 1 || st.UserTrimPages != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WriteAmplification() != 1.0 {
		t.Fatalf("WA = %v, want 1.0 pre-GC", st.WriteAmplification())
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
	var zero Stats
	if zero.WriteAmplification() != 0 {
		t.Fatal("zero-stats WA != 0")
	}
}

func TestRegionString(t *testing.T) {
	if Hot.String() != "hot" || Cold.String() != "cold" {
		t.Fatal("region strings")
	}
}

func TestRegionStats(t *testing.T) {
	f := newFTL(t, CAGCOptions())
	churn(t, f, int(f.LogicalPages())*4, 8, 81)
	rs := f.RegionStats()
	if rs.ColdBlocks == 0 || rs.ColdValid == 0 {
		t.Fatalf("no cold region despite heavy sharing: %+v", rs)
	}
	if rs.ColdShare() <= 0 || rs.ColdShare() >= 1 {
		t.Fatalf("cold share = %v", rs.ColdShare())
	}
	// Baseline never populates the cold region.
	b := newFTL(t, BaselineOptions())
	churn(t, b, int(b.LogicalPages())*2, 8, 82)
	if rs := b.RegionStats(); rs.ColdBlocks != 0 {
		t.Fatalf("baseline has cold blocks: %+v", rs)
	}
	var empty RegionStats
	if empty.ColdShare() != 0 {
		t.Fatal("empty cold share")
	}
}

// dieProgramsOf counts the pages programmed on die d since the device
// was made. GC erases only full blocks, so each erase of a block stands
// for one block of programs, and the pages written since its last
// erase are the rest.
func dieProgramsOf(t *testing.T, f *FTL, d flash.DieID) uint64 {
	t.Helper()
	var n uint64
	for b := range f.blocks {
		if f.dec.DieOfBlock(flash.BlockID(b)) != d {
			continue
		}
		blk, err := f.dev.Block(flash.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		n += uint64(blk.Erases() * len(blk.States()))
		for _, st := range blk.States() {
			if st != flash.PageFree {
				n++
			}
		}
	}
	return n
}

func TestStripingBalancesDies(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	churn(t, f, int(f.LogicalPages())*4, 1<<60, 91)
	g := f.Device().Geometry()
	var min, max, sum uint64
	for d := 0; d < g.Dies(); d++ {
		p := dieProgramsOf(t, f, flash.DieID(d))
		if d == 0 || p < min {
			min = p
		}
		if p > max {
			max = p
		}
		sum += p
	}
	if total := f.Device().Stats().PagePrograms; sum != total {
		t.Fatalf("per-die programs sum to %d, the device counted %d", sum, total)
	}
	if max == 0 {
		t.Fatal("no programs recorded per die")
	}
	// Channel striping keeps dies within 30% of each other.
	if float64(min) < float64(max)*0.7 {
		t.Errorf("die imbalance: min %d, max %d", min, max)
	}
}

func TestColdFrontierSurvivesGC(t *testing.T) {
	// The cold frontier's open block must never be selected as a GC
	// victim and must reopen correctly after filling.
	f := newFTL(t, CAGCOptions())
	churn(t, f, int(f.LogicalPages())*6, 4, 83) // extreme sharing: lots of cold traffic
	for b := range f.blocks {
		if f.blocks[b].state == blkOpen && f.blocks[b].region == Cold {
			blk, _ := f.dev.Block(flash.BlockID(b))
			if blk.Full() {
				t.Fatalf("full cold block %d still marked open", b)
			}
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocPrefersRequestedDie(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	// Consecutive single-page writes must rotate dies (striping).
	g := f.dev.Geometry()
	seen := map[flash.DieID]bool{}
	now := event.Time(0)
	for i := 0; i < g.Dies(); i++ {
		end, err := f.Write(now, uint64(i), fpOf(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	for d := 0; d < g.Dies(); d++ {
		if dieProgramsOf(t, f, flash.DieID(d)) == 1 {
			seen[flash.DieID(d)] = true
		}
	}
	if len(seen) != g.Dies() {
		t.Fatalf("striping touched %d/%d dies", len(seen), g.Dies())
	}
}

// popFree lends a die with an empty free list a block from another die.
// When that borrowed block fills, the slot it was allocated from must
// let go of it — found by the slot, not by the block's own die.
func TestBorrowedFrontierBlockLeavesItsSlot(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	g := f.dev.Geometry()
	// Drain die 0's free list into the bottom of die 1's, so die 0's
	// slot borrows one of die 1's own blocks (lists pop from the top).
	f.freeByDie[1] = append(f.freeByDie[0], f.freeByDie[1]...)
	f.freeByDie[0] = nil
	now := event.Time(0)
	for i := 0; i < g.Dies()*g.PagesPerBlock; i++ {
		if i == g.Dies() {
			// One page in every slot: die 0's block is a borrowed one.
			if b := f.hot[0].block; !f.hot[0].open || f.dec.DieOfBlock(b) == 0 {
				t.Fatalf("die 0's slot holds block %d (open=%v), want a block borrowed from another die", b, f.hot[0].open)
			}
		}
		end, err := f.Write(now, uint64(i), fpOf(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	// Every frontier block just took its last page.
	for d, fr := range f.hot {
		if fr.open {
			t.Errorf("die %d's slot still holds block %d after it filled", d, fr.block)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	churn(t, f, int(f.LogicalPages())*2, 1<<60, 92)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
