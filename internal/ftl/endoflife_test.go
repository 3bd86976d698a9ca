package ftl

import (
	"errors"
	"testing"

	"cagc/internal/event"
	"cagc/internal/flash"
)

func newWornFTL(t *testing.T, eraseLimit int, opts Options) *FTL {
	t.Helper()
	cfg := flash.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerPlan: 16, PagesPerBlock: 8, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.11,
		EraseLimit:    eraseLimit,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(dev, uint64(float64(cfg.UserPages())*0.70), opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDeviceWornOutErase(t *testing.T) {
	cfg := flash.Config{
		Geometry: flash.Geometry{
			Channels: 1, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 2, PagesPerBlock: 4, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.1,
		EraseLimit:    1,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := dev.Geometry()
	if _, err := dev.ProgramPage(0, 0, g.PageOf(0, 0), 1); err != nil {
		t.Fatal(err)
	}
	if err := dev.Invalidate(g.PageOf(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.EraseBlock(0, 0, 0); err != nil {
		t.Fatalf("first erase within budget failed: %v", err)
	}
	// The block is at its limit: the next erase fails.
	if _, err := dev.ProgramPage(0, 0, g.PageOf(0, 0), 2); err != nil {
		t.Fatal(err)
	}
	if err := dev.Invalidate(g.PageOf(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.EraseBlock(0, 0, 0); !errors.Is(err, flash.ErrWornOut) {
		t.Fatalf("err = %v, want ErrWornOut", err)
	}
}

func TestFTLRetiresBadBlocks(t *testing.T) {
	f := newWornFTL(t, 16, BaselineOptions())
	now := churn(t, f, int(f.LogicalPages())*12, 1<<60, 51)
	st := f.Stats()
	if st.BadBlocks == 0 {
		t.Fatalf("no blocks retired at erase limit 16 (erased %d)", st.BlocksErased)
	}
	// No data was lost: every mapped page still reads back.
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
		if _, err := f.Read(now, lpn); err != nil {
			t.Fatalf("read lpn %d after retirements: %v", lpn, err)
		}
	}
	// Retired blocks never return as victims or frontiers.
	dead := 0
	for b := range f.blocks {
		if f.blocks[b].state == blkDead {
			dead++
		}
	}
	if uint64(dead) != st.BadBlocks {
		t.Fatalf("dead blocks %d != BadBlocks %d", dead, st.BadBlocks)
	}
}

func TestFTLSurvivesUntilCapacityDies(t *testing.T) {
	// With a tiny erase budget, the device eventually cannot host the
	// logical space; the FTL must fail cleanly with ErrDeviceFull
	// rather than corrupt state.
	f := newWornFTL(t, 1, BaselineOptions())
	now := event.Time(0)
	var failed error
	for i := 0; i < int(f.LogicalPages())*40 && failed == nil; i++ {
		lpn := uint64(i) % f.LogicalPages()
		end, err := f.Write(now, lpn, fpOf(uint64(i)+7e9))
		if err != nil {
			failed = err
			break
		}
		now = end
	}
	if failed == nil {
		t.Skip("device outlived the test horizon (erase budget not exhausted)")
	}
	if !errors.Is(failed, ErrDeviceFull) {
		t.Fatalf("device died with %v, want ErrDeviceFull", failed)
	}
	// State remains consistent even at end of life.
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// writesUntilDeath churns a duplicate-heavy stream until the device
// fails (or the horizon is reached) and returns the host pages written.
func writesUntilDeath(t *testing.T, f *FTL, seed int64) int {
	t.Helper()
	rng := newChurnRNG(seed)
	now := event.Time(0)
	horizon := int(f.LogicalPages()) * 60
	for i := 0; i < horizon; i++ {
		lpn := uint64(rng.Int63n(int64(f.LogicalPages())))
		end, err := f.Write(now, lpn, fpOf(rng.Uint64()%32))
		if err != nil {
			if !errors.Is(err, ErrDeviceFull) {
				t.Fatalf("write %d died with %v", i, err)
			}
			return i
		}
		now = end
	}
	return horizon
}

func TestCAGCExtendsLifeUnderWearOut(t *testing.T) {
	// Same erase budget, duplicate-heavy workload: CAGC must sustain at
	// least as many host writes before the device wears out.
	base := newWornFTL(t, 4, BaselineOptions())
	baseWrites := writesUntilDeath(t, base, 52)
	cg := newWornFTL(t, 4, CAGCOptions())
	cagcWrites := writesUntilDeath(t, cg, 52)
	t.Logf("writes until death: baseline %d, CAGC %d", baseWrites, cagcWrites)
	if cagcWrites < baseWrites {
		t.Errorf("CAGC died after %d writes, baseline after %d — dedup should slow wear-out",
			cagcWrites, baseWrites)
	}
}

// A victim retired at its erase limit was still migrated: those
// programs occupy dies and belong to the GC horizon like any other
// collection's.
func TestRetiredVictimCountsTowardGCHorizon(t *testing.T) {
	f := newWornFTL(t, 1, BaselineOptions())
	now := event.Time(0)
	// Churn until a block that has used its one erase is closed again
	// with valid pages left in it.
	victim, found := flash.BlockID(0), false
	for i := 0; !found; i++ {
		if i == int(f.LogicalPages())*40 {
			t.Fatal("no worn closed block with valid pages appeared")
		}
		end, err := f.Write(now, uint64(i)%f.LogicalPages(), fpOf(uint64(i)+9e9))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		now = end
		for b := range f.blocks {
			blk, _ := f.dev.Block(flash.BlockID(b))
			if f.blocks[b].state == blkClosed && blk.Erases() == 1 && blk.Valid() > 0 {
				victim, found = flash.BlockID(b), true
				break
			}
		}
	}
	// Collect it long after everything scheduled so far has drained.
	now = max(now, f.GCBusyUntil()) + event.Second
	bad := f.Stats().BadBlocks
	if err := f.collect(now, victim); err != nil {
		t.Fatal(err)
	}
	if f.Stats().BadBlocks != bad+1 || f.blocks[victim].state != blkDead {
		t.Fatalf("block %d was not retired (state %d)", victim, f.blocks[victim].state)
	}
	lastProgram := event.Time(0)
	for b := range f.blocks {
		blk, _ := f.dev.Block(flash.BlockID(b))
		lastProgram = max(lastProgram, event.Time(blk.LastProgram()))
	}
	if lastProgram <= now {
		t.Fatal("the collection migrated nothing")
	}
	if f.GCBusyUntil() < lastProgram {
		t.Fatalf("GC horizon %v ends before the retired victim's last migration program at %v", f.GCBusyUntil(), lastProgram)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
