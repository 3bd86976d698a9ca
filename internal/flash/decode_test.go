package flash

import (
	"strings"
	"testing"
)

// checkDecode compares every Decoder method against Geometry's plain
// `/` and `%` for page number n on a geometry with ppb pages per block
// and planes x perPlane blocks per die.
func checkDecode(t *testing.T, ppb, planes, perPlane int, n uint32) {
	t.Helper()
	g := Geometry{Channels: 1, DiesPerChan: 1, PlanesPerDie: planes,
		BlocksPerPlan: perPlane, PagesPerBlock: ppb, PageSize: 4096}
	dec := newDecoder(g)
	p := PPN(n)
	b, idx := dec.Split(p)
	if wb, wi := g.BlockOf(p), g.PageIndexOf(p); b != wb || idx != wi {
		t.Fatalf("ppb %d: Split(%d) = (%d, %d), want (%d, %d)", ppb, n, b, idx, wb, wi)
	}
	if got, want := dec.BlockOf(p), g.BlockOf(p); got != want {
		t.Fatalf("ppb %d: BlockOf(%d) = %d, want %d", ppb, n, got, want)
	}
	if got := dec.PageOf(b, idx); got != p || got != g.PageOf(b, idx) {
		t.Fatalf("ppb %d: PageOf(%d, %d) = %d, want %d", ppb, b, idx, got, p)
	}
	// The same n doubles as a block number for the die decode.
	if got, want := dec.DieOfBlock(BlockID(n)), g.DieOfBlock(BlockID(n)); got != want {
		t.Fatalf("%d x %d blocks per die: DieOfBlock(%d) = %d, want %d", planes, perPlane, n, got, want)
	}
}

// The decoder must agree with plain division at every boundary of
// every divisor shape: 1, powers of two, odd and composite values, and
// the largest divisors the 2^32 bound admits.
func TestDecoderMatchesDivision(t *testing.T) {
	shapes := []struct{ ppb, planes, perPlane int }{
		{1, 1, 1},
		{2, 1, 2},
		{64, 2, 1280}, // Table I: 64 pages per block
		{64, 1, 1024},
		{3, 1, 3},
		{7, 3, 5},
		{96, 2, 683},
		{100, 1, 1000},
		{255, 1, 257},
		{65535, 1, 65537},
		{1 << 16, 1 << 8, 1 << 8},
		{1<<31 - 1, 1, 1<<31 + 1},
		{1<<32 - 1, 1, 1<<32 - 1},
		{1 << 32, 1 << 16, 1 << 16},
	}
	for _, s := range shapes {
		pts := []uint64{0, 1, 2, 1<<32 - 2, 1<<32 - 1, 21_000_000}
		for _, d := range []uint64{uint64(s.ppb), uint64(s.planes) * uint64(s.perPlane)} {
			// d-1, d, d+1 and the last page of a device of d x d pages.
			pts = append(pts, d-1, d, d+1, 2*d-1, 2*d, d*d-1, d*d)
		}
		for _, n := range pts {
			if n < 1<<32 {
				checkDecode(t, s.ppb, s.planes, s.perPlane, uint32(n))
			}
		}
	}
	// A dense sweep over small divisors catches any off-by-one the
	// boundary list misses.
	for d := 1; d <= 70; d++ {
		for n := uint32(0); n < 600; n++ {
			checkDecode(t, d, 1, d, n)
			checkDecode(t, d, d, 3, 1<<32-1-n)
		}
	}
}

// FuzzDecoder is the open-ended form of the differential test; the
// seed corpus under testdata/fuzz/FuzzDecoder pins the boundary cases.
func FuzzDecoder(f *testing.F) {
	f.Add(uint32(64), uint32(2), uint32(1280), uint32(20_971_519))
	f.Add(uint32(1), uint32(1), uint32(1), uint32(1<<32-1))
	f.Add(uint32(96), uint32(3), uint32(683), uint32(0))
	f.Fuzz(func(t *testing.T, ppb, planes, perPlane, n uint32) {
		if ppb == 0 || planes == 0 || perPlane == 0 || uint64(planes)*uint64(perPlane) > 1<<32 {
			t.Skip()
		}
		checkDecode(t, int(ppb), int(planes), int(perPlane), n)
	})
}

func TestConfigValidateDecoderRange(t *testing.T) {
	geo := func(ch, dies, planes, blocks, pages int) Geometry {
		return Geometry{Channels: ch, DiesPerChan: dies, PlanesPerDie: planes,
			BlocksPerPlan: blocks, PagesPerBlock: pages, PageSize: 4096}
	}
	cases := []struct {
		name string
		g    Geometry
		ok   bool
	}{
		{"table I", TableIConfig().Geometry, true},
		{"exactly 2^32 pages", geo(8, 4, 2, 1<<20, 64), true},
		{"2^32 pages in one block", geo(1, 1, 1, 1, 1<<32), true},
		{"2^32 + 64 pages", geo(1, 1, 1, 1<<26+1, 64), false},
		{"2^33 pages", geo(8, 4, 2, 1<<21, 64), false},
		{"2^32 blocks of 2 pages", geo(1<<8, 1<<8, 1<<8, 1<<8, 2), false},
		{"product overflows int64", geo(1<<20, 1<<20, 1<<20, 1<<20, 1<<20), false},
		{"one huge dimension", geo(1, 1, 1, 1<<62, 1), false},
	}
	for _, c := range cases {
		cfg := Config{Geometry: c.g, Latencies: TableILatencies(), OverProvision: 0.07}
		err := cfg.Validate()
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case !c.ok && err == nil:
			t.Errorf("%s: accepted", c.name)
		case !c.ok && !strings.Contains(err.Error(), "2^32 pages"):
			t.Errorf("%s: error does not name the bound: %v", c.name, err)
		}
	}
}
