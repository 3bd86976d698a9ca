package flash

import (
	"errors"
	"testing"
	"testing/quick"

	"cagc/internal/event"
)

// tinyConfig is a small device for unit tests: 2 channels x 1 die x
// 1 plane x 4 blocks x 8 pages.
func tinyConfig() Config {
	return Config{
		Geometry: Geometry{
			Channels:      2,
			DiesPerChan:   1,
			PlanesPerDie:  1,
			BlocksPerPlan: 4,
			PagesPerBlock: 8,
			PageSize:      4096,
		},
		Latencies:     TableILatencies(),
		OverProvision: 0.25,
	}
}

func mustDevice(t *testing.T, cfg Config) *Device {
	t.Helper()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func TestGeometryMath(t *testing.T) {
	g := tinyConfig().Geometry
	if g.Dies() != 2 {
		t.Errorf("Dies = %d, want 2", g.Dies())
	}
	if g.TotalBlocks() != 8 {
		t.Errorf("TotalBlocks = %d, want 8", g.TotalBlocks())
	}
	if g.TotalPages() != 64 {
		t.Errorf("TotalPages = %d, want 64", g.TotalPages())
	}
	if g.BlockBytes() != 8*4096 {
		t.Errorf("BlockBytes = %d", g.BlockBytes())
	}
	if g.PhysicalBytes() != 64*4096 {
		t.Errorf("PhysicalBytes = %d", g.PhysicalBytes())
	}
}

func TestGeometryIndexRoundTrip(t *testing.T) {
	g := tinyConfig().Geometry
	prop := func(blk uint8, pg uint8) bool {
		b := BlockID(int(blk) % g.TotalBlocks())
		i := int(pg) % g.PagesPerBlock
		p := g.PageOf(b, i)
		return g.BlockOf(p) == b && g.PageIndexOf(p) == i
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryDieMapping(t *testing.T) {
	g := tinyConfig().Geometry
	// Blocks 0-3 on die 0, blocks 4-7 on die 1.
	if d := g.DieOfBlock(0); d != 0 {
		t.Errorf("DieOfBlock(0) = %d, want 0", d)
	}
	if d := g.DieOfBlock(3); d != 0 {
		t.Errorf("DieOfBlock(3) = %d, want 0", d)
	}
	if d := g.DieOfBlock(4); d != 1 {
		t.Errorf("DieOfBlock(4) = %d, want 1", d)
	}
	if ch := g.ChannelOfDie(1); ch != 1 {
		t.Errorf("ChannelOfDie(1) = %d, want 1", ch)
	}
}

func TestGeometryValidate(t *testing.T) {
	good := tinyConfig().Geometry
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	for i := 0; i < 6; i++ {
		bad := good
		switch i {
		case 0:
			bad.Channels = 0
		case 1:
			bad.DiesPerChan = -1
		case 2:
			bad.PlanesPerDie = 0
		case 3:
			bad.BlocksPerPlan = 0
		case 4:
			bad.PagesPerBlock = 0
		case 5:
			bad.PageSize = 0
		}
		if err := bad.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted", i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	c := tinyConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	c.OverProvision = 1.5
	if err := c.Validate(); err == nil {
		t.Error("OP=1.5 accepted")
	}
	c = tinyConfig()
	c.Latencies.Erase = 0
	if err := c.Validate(); err == nil {
		t.Error("zero erase latency accepted")
	}
}

func TestUserPages(t *testing.T) {
	c := tinyConfig() // 64 physical pages, OP 25% -> 51 user pages
	if got := c.UserPages(); got != 51 {
		t.Errorf("UserPages = %d, want 51", got)
	}
	if got := c.UserBytes(); got != 51*4096 {
		t.Errorf("UserBytes = %d", got)
	}
}

func TestTableIConfig(t *testing.T) {
	c := TableIConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("TableIConfig invalid: %v", err)
	}
	if c.Geometry.PageSize != 4096 {
		t.Errorf("page size = %d, want 4096", c.Geometry.PageSize)
	}
	if c.Geometry.BlockBytes() != 256<<10 {
		t.Errorf("block bytes = %d, want 256KiB", c.Geometry.BlockBytes())
	}
	if c.Latencies.Read != 12*event.Microsecond ||
		c.Latencies.Program != 16*event.Microsecond ||
		c.Latencies.Erase != 1500*event.Microsecond ||
		c.Latencies.Hash != 14*event.Microsecond {
		t.Errorf("latencies = %+v, want Table I values", c.Latencies)
	}
	if c.OverProvision != 0.07 {
		t.Errorf("OP = %v, want 0.07", c.OverProvision)
	}
	// User capacity should be within 1% of 80 GB.
	want := float64(int64(80) << 30)
	got := float64(c.UserBytes())
	if got < want*0.99 || got > want*1.01 {
		t.Errorf("user bytes = %.2f GB, want ~80 GB", got/(1<<30))
	}
}

func TestScaledConfig(t *testing.T) {
	c := ScaledConfig(64 << 20)
	if err := c.Validate(); err != nil {
		t.Fatalf("ScaledConfig invalid: %v", err)
	}
	got := c.Geometry.PhysicalBytes()
	if got < 48<<20 || got > 80<<20 {
		t.Errorf("physical bytes = %d, want ≈64 MiB", got)
	}
	// Tiny request still yields a usable device.
	c = ScaledConfig(1)
	if err := c.Validate(); err != nil {
		t.Fatalf("minimal ScaledConfig invalid: %v", err)
	}
}

func TestProgramReadInvalidateEraseCycle(t *testing.T) {
	d := mustDevice(t, tinyConfig())
	g := d.Geometry()

	// Program all pages of block 0 in order.
	var end event.Time
	for i := 0; i < g.PagesPerBlock; i++ {
		var err error
		end, err = d.ProgramPage(end, 0, g.PageOf(0, i), uint64(i+1))
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}
	blk, _ := d.Block(0)
	if !blk.Full() || blk.Valid() != g.PagesPerBlock {
		t.Fatalf("block after fill: valid=%d full=%v", blk.Valid(), blk.Full())
	}

	// Tags survive.
	for i := 0; i < g.PagesPerBlock; i++ {
		tag, err := d.Tag(g.PageOf(0, i))
		if err != nil || tag != uint64(i+1) {
			t.Fatalf("tag %d = %d, %v", i, tag, err)
		}
	}

	// Read one back; completion strictly after program end.
	rend, err := d.ReadPage(end, g.PageOf(0, 3))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if rend != end+d.Config().Latencies.Read {
		t.Fatalf("read end = %v, want %v", rend, end+d.Config().Latencies.Read)
	}

	// Invalidate everything; then erase.
	for i := 0; i < g.PagesPerBlock; i++ {
		if err := d.Invalidate(g.PageOf(0, i)); err != nil {
			t.Fatalf("invalidate %d: %v", i, err)
		}
	}
	if blk.Invalid() != g.PagesPerBlock {
		t.Fatalf("invalid = %d", blk.Invalid())
	}
	eend, err := d.EraseBlock(rend, 0, 0)
	if err != nil {
		t.Fatalf("erase: %v", err)
	}
	if eend < rend+d.Config().Latencies.Erase {
		t.Fatalf("erase end = %v too early", eend)
	}
	if blk.Erases() != 1 || blk.Free() != g.PagesPerBlock {
		t.Fatalf("after erase: erases=%d free=%d", blk.Erases(), blk.Free())
	}
	st := d.Stats()
	if st.PagePrograms != 8 || st.PageReads != 1 || st.BlockErases != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProgramOutOfOrderRejected(t *testing.T) {
	d := mustDevice(t, tinyConfig())
	g := d.Geometry()
	if _, err := d.ProgramPage(0, 0, g.PageOf(0, 3), 1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order program: err = %v, want ErrOutOfOrder", err)
	}
}

func TestProgramTwiceRejected(t *testing.T) {
	d := mustDevice(t, tinyConfig())
	g := d.Geometry()
	if _, err := d.ProgramPage(0, 0, g.PageOf(0, 0), 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(g.PageOf(0, 0)); err != nil {
		t.Fatal(err)
	}
	// Page 0 is invalid, not free: reprogramming without erase must fail.
	if _, err := d.ProgramPage(0, 0, g.PageOf(0, 0), 2); !errors.Is(err, ErrPageBusy) {
		t.Fatalf("reprogram: err = %v, want ErrPageBusy", err)
	}
}

// ProgramNext is ProgramPage at the block's write pointer: same pages in
// the same order at the same times, the fill reported on the last page,
// and a full block refused.
func TestProgramNextMatchesProgramPage(t *testing.T) {
	byPage, byNext := mustDevice(t, tinyConfig()), mustDevice(t, tinyConfig())
	g := byPage.Geometry()
	const b = BlockID(5) // on the second die
	for i := 0; i < g.PagesPerBlock; i++ {
		at, ready := event.Time(i)*event.Microsecond, event.Time(i%3)*40*event.Microsecond
		want, err := byPage.ProgramPage(at, ready, g.PageOf(b, i), uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		p, end, full, err := byNext.ProgramNext(at, ready, b, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if p != g.PageOf(b, i) || end != want || full != (i == g.PagesPerBlock-1) {
			t.Fatalf("page %d: ProgramNext = (ppn %d, %v, full %v), ProgramPage ended %v", i, p, end, full, want)
		}
		if tag, _ := byNext.Tag(p); tag != uint64(100+i) {
			t.Fatalf("page %d: tag %d", i, tag)
		}
	}
	if byNext.Stats() != byPage.Stats() || byNext.DieStats(1) != byPage.DieStats(1) ||
		byNext.DieFreeAt(1) != byPage.DieFreeAt(1) {
		t.Fatal("devices diverged")
	}
	if _, _, _, err := byNext.ProgramNext(0, 0, b, 1); !errors.Is(err, ErrPageBusy) {
		t.Fatalf("program into a full block: err = %v, want ErrPageBusy", err)
	}
	if _, _, _, err := byNext.ProgramNext(0, 0, BlockID(g.TotalBlocks()), 1); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("program into block out of range: err = %v, want ErrBadBlock", err)
	}
}

func TestReadFreePageRejected(t *testing.T) {
	d := mustDevice(t, tinyConfig())
	if _, err := d.ReadPage(0, 0); !errors.Is(err, ErrNotProgrammed) {
		t.Fatalf("err = %v, want ErrNotProgrammed", err)
	}
}

func TestEraseWithValidPagesRejected(t *testing.T) {
	d := mustDevice(t, tinyConfig())
	g := d.Geometry()
	if _, err := d.ProgramPage(0, 0, g.PageOf(0, 0), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseBlock(0, 0, 0); !errors.Is(err, ErrLiveErase) {
		t.Fatalf("err = %v, want ErrLiveErase", err)
	}
}

func TestInvalidateTwiceRejected(t *testing.T) {
	d := mustDevice(t, tinyConfig())
	g := d.Geometry()
	if _, err := d.ProgramPage(0, 0, g.PageOf(0, 0), 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(g.PageOf(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(g.PageOf(0, 0)); !errors.Is(err, ErrNotInvalid) {
		t.Fatalf("err = %v, want ErrNotInvalid", err)
	}
}

func TestBoundsChecks(t *testing.T) {
	d := mustDevice(t, tinyConfig())
	big := PPN(d.Geometry().TotalPages())
	if _, err := d.ReadPage(0, big); !errors.Is(err, ErrBadPPN) {
		t.Errorf("read: %v", err)
	}
	if _, err := d.ProgramPage(0, 0, big, 0); !errors.Is(err, ErrBadPPN) {
		t.Errorf("program: %v", err)
	}
	if err := d.Invalidate(big); !errors.Is(err, ErrBadPPN) {
		t.Errorf("invalidate: %v", err)
	}
	if _, err := d.EraseBlock(0, 0, BlockID(d.Geometry().TotalBlocks())); !errors.Is(err, ErrBadBlock) {
		t.Errorf("erase: %v", err)
	}
	if _, err := d.Block(BlockID(d.Geometry().TotalBlocks())); !errors.Is(err, ErrBadBlock) {
		t.Errorf("block: %v", err)
	}
	if _, err := d.Tag(big); !errors.Is(err, ErrBadPPN) {
		t.Errorf("tag: %v", err)
	}
	if _, err := d.PageStateOf(big); !errors.Is(err, ErrBadPPN) {
		t.Errorf("state: %v", err)
	}
}

func TestDieContentionSerializes(t *testing.T) {
	d := mustDevice(t, tinyConfig())
	g := d.Geometry()
	lat := d.Config().Latencies
	// Two programs on the same die issued at t=0 must serialize.
	e1, err := d.ProgramPage(0, 0, g.PageOf(0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := d.ProgramPage(0, 0, g.PageOf(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != lat.Program || e2 != 2*lat.Program {
		t.Fatalf("same-die ends = %v, %v; want %v, %v", e1, e2, lat.Program, 2*lat.Program)
	}
	// A program on the other die at t=0 proceeds in parallel.
	otherBlock := BlockID(g.PlanesPerDie * g.BlocksPerPlan) // first block of die 1
	e3, err := d.ProgramPage(0, 0, g.PageOf(otherBlock, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if e3 != lat.Program {
		t.Fatalf("other-die end = %v, want %v (parallel)", e3, lat.Program)
	}
}

func TestProgramWaitsForDataReady(t *testing.T) {
	d := mustDevice(t, tinyConfig())
	g := d.Geometry()
	lat := d.Config().Latencies
	end, err := d.ProgramPage(0, 500*event.Microsecond, g.PageOf(0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if end != 500*event.Microsecond+lat.Program {
		t.Fatalf("end = %v, want data-ready + program", end)
	}
}

func TestEraseWaitsForMigration(t *testing.T) {
	d := mustDevice(t, tinyConfig())
	g := d.Geometry()
	if _, err := d.ProgramPage(0, 0, g.PageOf(0, 0), 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(g.PageOf(0, 0)); err != nil {
		t.Fatal(err)
	}
	migrated := 10 * event.Millisecond
	end, err := d.EraseBlock(0, migrated, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end != migrated+d.Config().Latencies.Erase {
		t.Fatalf("erase end = %v, want %v", end, migrated+d.Config().Latencies.Erase)
	}
}

func TestCountStatesConservation(t *testing.T) {
	d := mustDevice(t, tinyConfig())
	g := d.Geometry()
	total := g.TotalPages()
	check := func(stage string) {
		f, v, i := d.CountStates()
		if f+v+i != total {
			t.Fatalf("%s: %d+%d+%d != %d", stage, f, v, i, total)
		}
	}
	check("initial")
	for i := 0; i < g.PagesPerBlock; i++ {
		if _, err := d.ProgramPage(0, 0, g.PageOf(1, i), 7); err != nil {
			t.Fatal(err)
		}
	}
	check("programmed")
	for i := 0; i < 4; i++ {
		if err := d.Invalidate(g.PageOf(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	check("half invalidated")
	f, v, i := d.CountStates()
	if v != 4 || i != 4 || f != total-8 {
		t.Fatalf("counts f=%d v=%d i=%d", f, v, i)
	}
}

func TestWearAccounting(t *testing.T) {
	d := mustDevice(t, tinyConfig())
	g := d.Geometry()
	if d.EraseSpread() != 0 || d.MaxErase() != 0 {
		t.Fatal("fresh device shows wear")
	}
	for n := 0; n < 3; n++ {
		if _, err := d.ProgramPage(0, 0, g.PageOf(0, 0), 1); err != nil {
			t.Fatal(err)
		}
		if err := d.Invalidate(g.PageOf(0, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.EraseBlock(0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if d.MaxErase() != 3 {
		t.Fatalf("MaxErase = %d, want 3", d.MaxErase())
	}
	if d.EraseSpread() != 3 {
		t.Fatalf("EraseSpread = %d, want 3", d.EraseSpread())
	}
}

func TestPageStateString(t *testing.T) {
	if PageFree.String() != "free" || PageValid.String() != "valid" || PageInvalid.String() != "invalid" {
		t.Error("state strings wrong")
	}
	if PageState(9).String() == "" {
		t.Error("unknown state should still print")
	}
}

// Property: an arbitrary interleaving of legal operations never breaks
// page-count conservation and never lets valid counts go negative.
func TestDeviceStateMachineProperty(t *testing.T) {
	g := tinyConfig()
	prop := func(script []uint8) bool {
		d, err := NewDevice(g)
		if err != nil {
			return false
		}
		geo := d.Geometry()
		total := geo.TotalPages()
		now := event.Time(0)
		for _, op := range script {
			blk := BlockID(int(op>>2) % geo.TotalBlocks())
			switch op & 3 {
			case 0, 1: // program next free page of blk
				b := &d.blocks[blk]
				if !b.Full() {
					now, err = d.ProgramPage(now, 0, geo.PageOf(blk, b.writePtr), uint64(op))
					if err != nil {
						return false
					}
				}
			case 2: // invalidate first valid page of blk
				b := &d.blocks[blk]
				for i := 0; i < b.writePtr; i++ {
					if b.states[i] == PageValid {
						if d.Invalidate(geo.PageOf(blk, i)) != nil {
							return false
						}
						break
					}
				}
			case 3: // erase blk if no valid pages
				b := &d.blocks[blk]
				if b.validCnt == 0 && b.writePtr > 0 {
					now, err = d.EraseBlock(now, 0, blk)
					if err != nil {
						return false
					}
				}
			}
			f, v, i := d.CountStates()
			if f+v+i != total || v < 0 || i < 0 || f < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
