package trace

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

type zipfParams struct {
	name string
	s    float64
	imax uint64
}

// presetZipfParams lists the (s, imax) pairs the three presets draw
// with on the default 16 MiB device (2105 logical pages, 512 popular
// contents): content ranks first, address ranks second.
var presetZipfParams = []zipfParams{
	{"homes-content", 1.3, 511},
	{"webvm-content", 1.4, 511},
	{"mail-content", 1.6, 511},
	{"homes-webvm-addr", 1.2, 2104},
	{"mail-addr", 1.03, 2104},
}

// checkZipfMatchesStdlib draws n variates from zipf and from rand.Zipf
// off identically seeded RNGs and requires equal values and, at the
// end, RNGs in the same position.
func checkZipfMatchesStdlib(t *testing.T, s, v float64, imax uint64, seed int64, n int) {
	t.Helper()
	wantRNG := rand.New(rand.NewSource(seed))
	want := rand.NewZipf(wantRNG, s, v, imax)
	gotRNG := rand.New(rand.NewSource(seed))
	got := newZipf(gotRNG, s, v, imax)
	for i := 0; i < n; i++ {
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("s=%v v=%v imax=%d seed=%d: draw %d = %d, rand.Zipf gives %d", s, v, imax, seed, i, g, w)
		}
	}
	if w, g := wantRNG.Int63(), gotRNG.Int63(); w != g {
		t.Fatalf("s=%v v=%v imax=%d seed=%d: RNG out of step after %d draws", s, v, imax, seed, n)
	}
}

func TestZipfMatchesStdlibOnPresets(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	for _, p := range presetZipfParams {
		checkZipfMatchesStdlib(t, p.s, 1, p.imax, 7, n)
	}
}

// FuzzZipfMatchesStdlib is the open-ended form; the seed corpus under
// testdata/fuzz/FuzzZipfMatchesStdlib pins the presets' parameters, the
// table-size boundary and s near 1.
func FuzzZipfMatchesStdlib(f *testing.F) {
	f.Add(1.6, uint64(511), int64(1))
	f.Add(1.03, uint64(2104), int64(2))
	f.Add(2.5, uint64(7), int64(3))
	f.Fuzz(func(t *testing.T, s float64, imax uint64, seed int64) {
		if !(s > 1) || math.IsInf(s, 0) {
			t.Skip()
		}
		checkZipfMatchesStdlib(t, s, 1, imax, seed, 10_000)
		checkZipfMatchesStdlib(t, s, 1+float64(imax%7)/2, imax, seed, 1_000)
	})
}

// Feeds ur one ulp either side of, and exactly at, every tabled
// threshold through both decision paths: wherever the table certifies
// a decision it must be the one the stdlib's arithmetic reaches, and
// the scan must agree with itself from any valid start.
func TestZipfThresholdNeighbours(t *testing.T) {
	params := append([]zipfParams{
		{"near-one", 1.0001, 4000},
		{"steep", 2.5, 7},
		{"two-ranks", 1.5, 1},
	}, presetZipfParams...)
	for _, p := range params {
		tab := buildZipfTable(p.s, 1, p.imax)
		if want := int(min(p.imax+1, zipfMaxRanks)) + 1; len(tab.ranks) != want {
			t.Fatalf("%s: %d ranks tabled, want %d", p.name, len(tab.ranks)-1, want-1)
		}
		top := len(tab.ranks) - 1
		certified, probes := 0, 0
		for i, e := range tab.ranks[1:] {
			for _, th := range []float64{e.lo, e.rejHi, e.accLo, e.hi, e.slow} {
				for _, ur := range []float64{math.Nextafter(th, math.Inf(-1)), th, math.Nextafter(th, math.Inf(1))} {
					probes++
					k, accept, ok := tab.lookup(top, ur)
					if k2, accept2, ok2 := tab.lookup(i+1, ur); ok2 && (!ok || k2 != k || accept2 != accept) {
						t.Fatalf("%s: ur=%v: scan from rank %d gives (%d,%v), from the top (%d,%v,%v)", p.name, ur, i, k2, accept2, k, accept, ok)
					}
					if !ok {
						continue
					}
					certified++
					if wk, waccept := tab.exact(ur); wk != k || waccept != accept {
						t.Fatalf("%s: ur=%v (rank %d threshold %v): table says (%d,%v), stdlib arithmetic (%d,%v)",
							p.name, ur, i, th, k, accept, wk, waccept)
					}
				}
			}
		}
		// lo-1ulp, hi+1ulp and the inner edges of the accept band are
		// uncertified by construction; everything else must be.
		if certified < probes/2 {
			t.Errorf("%s: only %d of %d threshold probes certified", p.name, certified, probes)
		}
	}
}

// With the whole support tabled (imax < 1024) only guard-band hits and
// the r = 0 corner leave the table.
func TestZipfCertifiedShare(t *testing.T) {
	for _, p := range presetZipfParams[:3] {
		tab := buildZipfTable(p.s, 1, p.imax)
		rng := rand.New(rand.NewSource(11))
		const n = 1_000_000
		miss := 0
		for i := 0; i < n; i++ {
			r := rng.Float64()
			ur := tab.hxm + r*tab.hx0minusHxm
			if _, _, ok := tab.lookup(int(tab.guide[int(r*zipfBuckets)]), ur); !ok {
				miss++
			}
		}
		if miss > n/1000 {
			t.Errorf("%s: %d of %d draws left the table, want <= 0.1%%", p.name, miss, n)
		}
	}
}

// Below the s -> 1 limit of the error budget nothing is certified, and
// for large s the table stops where thresholds would underflow — and the
// sampler still equals the stdlib, because every uncertified draw runs
// its arithmetic.
func TestZipfUncertifiableParameters(t *testing.T) {
	for _, c := range []struct {
		s        float64
		maxRanks int
	}{
		{math.Nextafter(1, 2), 0},
		{1 + 1e-9, 0},
		{900, 1},
		{1e300, 0},
	} {
		if tab := buildZipfTable(c.s, 1, 1000); len(tab.ranks)-1 > c.maxRanks {
			t.Errorf("s=%v: %d ranks certified, want at most %d", c.s, len(tab.ranks)-1, c.maxRanks)
		}
		checkZipfMatchesStdlib(t, c.s, 1, 1000, 3, 10_000)
	}
}

// Tables are shared: a second sampler, and a second generator, with the
// same parameters build nothing, and the cache stays bounded.
func TestZipfSharedTablesAllocs(t *testing.T) {
	spec, err := Preset(Mail, 2105, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := NewGenerator(spec)
	g2, _ := NewGenerator(spec)
	if g1.contentZipf.zipfTable != g2.contentZipf.zipfTable || g1.addrZipf.zipfTable != g2.addrZipf.zipfTable {
		t.Fatal("two generators with one spec hold different tables")
	}
	rng := rand.New(rand.NewSource(1))
	if allocs := testing.AllocsPerRun(100, func() {
		newZipf(rng, spec.ContentSkew, 1, spec.ContentPool-1)
		newZipf(rng, spec.AddrSkew, 1, spec.LogicalPages-1)
	}); allocs != 0 {
		t.Fatalf("re-requesting cached tables allocated %.1f objects, want 0", allocs)
	}
	for i := uint64(0); i < 2*zipfCacheCap; i++ {
		newZipf(rng, 1.5, 1, 10_000+i)
	}
	if n := len(zipfTables.mru); n != zipfCacheCap {
		t.Fatalf("cache holds %d tables, want the cap %d", n, zipfCacheCap)
	}
	checkZipfMatchesStdlib(t, spec.ContentSkew, 1, spec.ContentPool-1, 5, 10_000) // evicted, rebuilt
}

// Fleet and batch workers build generators concurrently: the cache is
// the one piece of state they share.
func TestZipfConcurrentBuilders(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*zipfCacheCap; i++ {
				// Overlapping keys across workers, more than the cache holds.
				imax := uint64(20_000 + (i+w)%(zipfCacheCap+3))
				z := newZipf(rand.New(rand.NewSource(int64(i))), 1.3, 1, imax)
				want := rand.NewZipf(rand.New(rand.NewSource(int64(i))), 1.3, 1, imax)
				for d := 0; d < 50; d++ {
					if g, w := z.Uint64(), want.Uint64(); g != w {
						t.Errorf("imax=%d draw %d = %d, rand.Zipf gives %d", imax, d, g, w)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkZipf(b *testing.B) {
	for _, p := range presetZipfParams {
		b.Run(p.name, func(b *testing.B) {
			z := newZipf(rand.New(rand.NewSource(1)), p.s, 1, p.imax)
			for i := 0; i < b.N; i++ {
				benchSink += z.Uint64()
			}
		})
		b.Run(p.name+"/stdlib", func(b *testing.B) {
			z := rand.NewZipf(rand.New(rand.NewSource(1)), p.s, 1, p.imax)
			for i := 0; i < b.N; i++ {
				benchSink += z.Uint64()
			}
		})
	}
}

var benchSink uint64
