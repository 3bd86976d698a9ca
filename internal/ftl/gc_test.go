package ftl

import (
	"testing"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/trace"
)

func TestIdleGCReclaims(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	// Dirty the device well past the idle target without breaching the
	// watermark badly, then give it a big idle window.
	now := churn(t, f, int(f.LogicalPages())*2, 1<<60, 21)
	before := f.Stats()
	if err := f.IdleGC(now, now+event.Second, 0.5); err != nil {
		t.Fatal(err)
	}
	after := f.Stats()
	if after.IdleGCCollects == before.IdleGCCollects {
		t.Fatal("idle GC reclaimed nothing")
	}
	if after.IdleGCWindows != before.IdleGCWindows+1 {
		t.Fatalf("idle windows = %d, want +1", after.IdleGCWindows)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIdleGCRespectsDeadline(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	now := churn(t, f, int(f.LogicalPages())*2, 1<<60, 22)
	before := f.Stats().BlocksErased
	// A window that has already closed: nothing may start.
	if err := f.IdleGC(now, now-1, 0.9); err != nil {
		t.Fatal(err)
	}
	after := f.Stats().BlocksErased
	// The GC horizon from foreground churn is already past now-1, so
	// the deadline check stops the loop immediately or after at most
	// the work whose horizon predates the deadline.
	if after > before {
		t.Fatalf("idle GC erased %d blocks past a closed window", after-before)
	}
}

func TestIdleGCStopsAtTarget(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	now := churn(t, f, int(f.LogicalPages())*2, 1<<60, 23)
	target := f.FreeBlockFraction() // already satisfied
	before := f.Stats().BlocksErased
	if err := f.IdleGC(now, now+event.Second, target); err != nil {
		t.Fatal(err)
	}
	if f.Stats().BlocksErased != before {
		t.Fatal("idle GC ran although target was met")
	}
}

func TestForceGCDrainsAllVictims(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	now := churn(t, f, int(f.LogicalPages())*2, 1<<60, 24)
	if err := f.ForceGC(now); err != nil {
		t.Fatal(err)
	}
	// No closed block with invalid pages may remain.
	if n := f.vix.count[0]; n != 0 {
		t.Fatalf("%d victims remain after ForceGC", n)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectAllConsolidates(t *testing.T) {
	f := newFTL(t, CAGCOptions())
	now := event.Time(0)
	// Fill whole blocks with duplicate content, no invalid pages. The
	// hot frontier stripes across the 4 dies, so 4 blocks x 8 pages
	// close exactly.
	for lpn := uint64(0); lpn < 4*8; lpn++ {
		end, err := f.Write(now, lpn, fpOf(lpn%4))
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	if err := f.CollectAll(now); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.GCDupDropped == 0 {
		t.Fatal("consolidation found no duplicates")
	}
	// Only 4 distinct contents remain stored, all of them hashed.
	if f.LiveContents() != 4 || f.Index().Live() != 4 {
		t.Fatalf("live contents = %d (%d indexed), want 4 (4)", f.LiveContents(), f.Index().Live())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGCBusyHorizonAdvances(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	if f.GCBusyUntil() != 0 {
		t.Fatal("fresh FTL has GC horizon")
	}
	churn(t, f, int(f.LogicalPages())*3, 1<<60, 25)
	if f.GCBusyUntil() == 0 {
		t.Fatal("GC horizon never moved despite churn")
	}
}

func TestSerialModeErasesAfterChains(t *testing.T) {
	// In the serial ablation the erase is gated on the last page chain;
	// the GC horizon must therefore sit beyond a freshly-triggered
	// collection's read phase.
	o := CAGCOptions()
	o.HashAt = HashAtMigrateSerial
	f := newFTL(t, o)
	churn(t, f, int(f.LogicalPages())*3, 32, 26)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.Stats().GCDupDropped == 0 {
		t.Fatal("serial CAGC never deduplicated")
	}
}

func TestVictimCandidatesExcludeFrontiers(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	now := event.Time(0)
	// Write one page: its block is an open frontier, not a candidate
	// even after invalidation.
	end, err := f.Write(now, 0, fpOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(end, 0, fpOf(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.selectVictim(end); ok {
		t.Fatal("an open frontier's invalid page made a victim")
	}
	// After churn every block on offer is a full one.
	churn(t, f, int(f.LogicalPages())*2, 1<<60, 32)
	v := VictimView{&f.vix, f.dev}
	if v.Len() == 0 {
		t.Fatal("churn produced no victim candidates")
	}
	for b, ok := v.Next(0, 0); ok; b, ok = v.Next(0, b+1) {
		if !v.Block(b).Full() {
			t.Fatalf("open block %d offered as victim", b)
		}
	}
}

// The victim pass invalidates only inside a collection: a page of a
// block in any other state is corruption, reported rather than skipped,
// and the page stays valid.
func TestInvalidateVictimNeedsVictimState(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	churn(t, f, int(f.LogicalPages())*2, 1<<60, 32)
	v := VictimView{&f.vix, f.dev}
	for b, ok := v.Next(0, 0); ok; b, ok = v.Next(0, b+1) {
		blk := v.Block(b)
		for i, st := range blk.States() {
			if st != flash.PageValid {
				continue
			}
			ref := victimRef{flash.BlockRef{ID: b, Die: f.dec.DieOfBlock(b),
				Base: f.dec.PageOf(b, 0), Blk: blk}, f.blocks[b].region}
			if err := f.invalidateVictim(&ref, i); err == nil {
				t.Fatalf("closed block %d: victim-pass invalidation accepted", b)
			}
			if blk.States()[i] != flash.PageValid {
				t.Fatalf("closed block %d: page %d invalidated despite the error", b, i)
			}
			return
		}
	}
	t.Fatal("churn left no closed block with a valid page")
}

// The victim pass masks valid pages 64 at a time. On 100-page blocks a
// victim takes a full mask and a partial one; every page of both must
// move, under every HashAt, or the erase fails or the model disagrees.
func TestCollectWalksBlocksWiderThanOneMask(t *testing.T) {
	for _, hashAt := range []HashAt{HashNever, HashAtWrite, HashAtMigrate, HashAtMigrateSerial} {
		dev, err := flash.NewDevice(flash.Config{
			Geometry: flash.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
				BlocksPerPlan: 8, PagesPerBlock: 100, PageSize: 4096},
			Latencies:     flash.TableILatencies(),
			OverProvision: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := Defaults()
		opts.HashAt, opts.HotCold = hashAt, hashAt.atMigrate()
		f, err := New(dev, 1000, opts)
		if err != nil {
			t.Fatal(err)
		}
		model := map[uint64]dedup.Fingerprint{}
		now, x := event.Time(0), uint64(1)
		for i := 0; i < 12000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			lpn, fp := x%1000, fpOf(x>>32%4096)
			if now, err = f.Write(now, lpn, fp); err != nil {
				t.Fatalf("HashAt %d, write %d: %v", hashAt, i, err)
			}
			model[lpn] = fp
		}
		if f.Stats().BlocksErased == 0 {
			t.Fatalf("HashAt %d: no block was collected", hashAt)
		}
		compareWithModel(t, f, model, now)
	}
}

func TestMaxGCBatchBoundsForegroundWork(t *testing.T) {
	f := newFTL(t, BaselineOptions())
	// Push free space just below the watermark, then check one write
	// triggers at most maxGCBatch erases.
	churnUntilGCReady(t, f)
	before := f.Stats().BlocksErased
	if _, err := f.Write(f.GCBusyUntil()+event.Second, 0, fpOf(99)); err != nil {
		t.Fatal(err)
	}
	after := f.Stats().BlocksErased
	if after-before > maxGCBatch {
		t.Fatalf("one write triggered %d erases, cap is %d", after-before, maxGCBatch)
	}
}

// churnUntilGCReady writes until the device is near the watermark.
func churnUntilGCReady(t *testing.T, f *FTL) {
	t.Helper()
	now := event.Time(0)
	for i := 0; i < int(f.LogicalPages())*4; i++ {
		if f.FreeBlockFraction() < f.Options().Watermark+0.03 {
			return
		}
		lpn := uint64(i) % f.LogicalPages()
		end, err := f.Write(now, lpn, fpOf(uint64(i)+1e6))
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
}

// The incremental victim set must agree with a fresh O(device) scan at
// every point of a churny workload, including dedup GC and promotions.
func TestVictimSetMatchesScan(t *testing.T) {
	for _, opts := range []Options{BaselineOptions(), CAGCOptions()} {
		f := newFTL(t, opts)
		now := event.Time(0)
		for i := 0; i < int(f.LogicalPages())*3; i++ {
			lpn := uint64(i*2654435761) % f.LogicalPages()
			end, err := f.Write(now, lpn, fpOf(uint64(i%64)))
			if err != nil {
				t.Fatal(err)
			}
			now = end
			if i%97 == 0 {
				if err := f.checkEligibleSet(); err != nil {
					t.Fatalf("%s after write %d: %v", opts.SchemeName(), i, err)
				}
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// Selection reads the index in place: no candidate table is built, so
// a GC trigger allocates nothing under any policy.
func TestSelectVictimZeroAlloc(t *testing.T) {
	for _, policy := range []string{"greedy", "random", "cost-benefit"} {
		o := BaselineOptions()
		o.Policy, _ = PolicyByName(policy, 1)
		f := newFTL(t, o)
		now := churn(t, f, int(f.LogicalPages())*2, 1<<60, 31)
		if _, ok := f.selectVictim(now); !ok {
			t.Fatal("churn produced no victim candidates")
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := f.selectVictim(now); !ok {
				t.Fatal("no candidates")
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: selectVictim allocated %.1f objects/op, want 0", policy, allocs)
		}
	}
}

func TestPromoteSkipsWhenPoolExhausted(t *testing.T) {
	// With freeCount < 2 promote must decline rather than consume the
	// last reserve; exercised indirectly by hammering a tiny device.
	cfg := flash.Config{
		Geometry: flash.Geometry{
			Channels: 1, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 8, PagesPerBlock: 4, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.1,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(dev, 20, CAGCOptions())
	if err != nil {
		t.Fatal(err)
	}
	now := event.Time(0)
	for i := 0; i < 200; i++ {
		lpn := uint64(i) % 20
		end, err := f.Write(now, lpn, fpOf(uint64(i%3)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		now = end
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDemotionAccounting(t *testing.T) {
	f := newFTL(t, CAGCOptions())
	now := event.Time(0)
	logical := f.LogicalPages()
	// Build shared content (promotes to cold), then trim the sharers so
	// refcounts collapse, then churn so GC revisits the cold blocks.
	for lpn := uint64(0); lpn < logical/2; lpn++ {
		end, err := f.Write(now, lpn, fpOf(lpn%8))
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	now = churn(t, f, int(logical)*2, 8, 71) // GC runs; promotions happen
	if f.Stats().Promotions == 0 {
		t.Skip("no promotions at this horizon; nothing to demote")
	}
	// Collapse sharing: trim half the space so cold contents fall back
	// to refcount <= threshold.
	for lpn := uint64(0); lpn < logical/2; lpn++ {
		end, err := f.Trim(now, lpn)
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	// Unique-content churn forces GC over the cold blocks.
	churn(t, f, int(logical)*4, 1<<60, 72)
	if f.Stats().Demotions == 0 {
		t.Error("no demotions despite collapsed refcounts and GC churn")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The reverse map costs only the scheme that can read it: its one
// reader, remapAll, runs only when GC hashes, so after duplicate-heavy churn
// with trims Baseline and Inline-Dedupe hold empty tables, while CAGC
// still merges references through it.
func TestReverseMapOnlyUnderGCDedup(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"baseline", BaselineOptions()},
		{"inline", InlineDedupeOptions()},
		{"cagc", CAGCOptions()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFTL(t, tc.opts)
			// 512 contents over ~700 LPNs: duplicates everywhere, yet
			// enough distinct content that Inline-Dedupe still fills the
			// device and collects.
			now := churn(t, f, int(f.LogicalPages())*6, 512, 11)
			for lpn := uint64(0); lpn < f.LogicalPages(); lpn += 3 {
				if _, err := f.Trim(now, lpn); err != nil {
					t.Fatal(err)
				}
			}
			now = churn(t, f, int(f.LogicalPages()), 512, 12)
			st := f.Stats()
			if st.GCInvocations == 0 || st.PagesMigrated == 0 {
				t.Fatalf("GC never migrated: %+v", st)
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
				if _, err := f.Read(now, lpn); err != nil {
					t.Fatalf("read lpn %d: %v", lpn, err)
				}
			}
			if tc.opts.HashAt.atMigrate() {
				if st.GCDupDropped == 0 || len(f.rev.next) == 0 {
					t.Fatalf("CAGC merged nothing through the reverse map: %d dropped, %d LPNs",
						st.GCDupDropped, len(f.rev.next))
				}
				return
			}
			if len(f.rev.next) != 0 || len(f.rev.prev) != 0 || len(f.rev.heads) != 0 {
				t.Fatalf("%s populated the reverse map: %d LPNs, %d heads",
					tc.name, len(f.rev.next), len(f.rev.heads))
			}
		})
	}
}

// The reverse map is sized by the address space, not by write history:
// a Mail x CAGC replay four times as long leaves exactly the same
// tables, 8 B per logical page. (The lazy arena this replaced kept a
// node per stale binding for as long as popular content lived.)
func TestReverseMapBoundedByLogicalPages(t *testing.T) {
	footprint := func(requests int) (lpns, cids int) {
		f := newFTL(t, CAGCOptions())
		spec, err := trace.Preset(trace.Mail, f.LogicalPages(), requests, 5)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := trace.NewPreconditioner(spec)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trace.NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		now := event.Time(0)
		for _, src := range []trace.Source{pre, gen} {
			for r, ok := src.Next(); ok; r, ok = src.Next() {
				for i := 0; i < r.Pages; i++ {
					lpn := r.LPN + uint64(i)
					switch r.Op {
					case trace.OpWrite:
						now, err = f.Write(now, lpn, r.FPs[i])
					case trace.OpTrim:
						now, err = f.Trim(now, lpn)
					default:
						now, err = f.Read(now, lpn)
					}
					if err != nil {
						t.Fatalf("%v lpn %d: %v", r.Op, lpn, err)
					}
				}
			}
		}
		if f.Stats().GCDupDropped == 0 {
			t.Fatal("replay never merged through the reverse map")
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if len(f.rev.next) != len(f.rev.prev) {
			t.Fatalf("next covers %d LPNs, prev %d", len(f.rev.next), len(f.rev.prev))
		}
		return len(f.rev.next), len(f.rev.heads)
	}
	const n = 5000
	lpns1, cids1 := footprint(n)
	lpns4, cids4 := footprint(4 * n)
	f := newFTL(t, CAGCOptions())
	if lpns1 != lpns4 || uint64(lpns4) > f.LogicalPages() {
		t.Errorf("next/prev cover %d LPNs after %d requests, %d after %d; want equal and <= %d logical pages",
			lpns1, n, lpns4, 4*n, f.LogicalPages())
	}
	// CIDs are dense and recycled, and every live one owns a flash page.
	if total := f.geo.TotalPages(); cids1 > total || cids4 > total {
		t.Errorf("heads cover %d and %d CIDs on a %d-page device", cids1, cids4, total)
	}
}
