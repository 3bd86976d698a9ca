package trace

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds covers rand.NewSource's seed reduction: zero (which the
// stdlib maps to a fixed seed), negative seeds, multiples of 2^31-1
// (reduced to zero), and seeds above 2^31.
var sourceSeeds = []int64{
	0, 1, 7, -1, -3, 89482311,
	1<<31 - 1, 2 * (1<<31 - 1), -(1<<31 - 1), 5 * (1<<31 - 1),
	1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64,
}

// checkSourceMatchesStdlib runs n operations, chosen by cycling through
// ops, on newFibSource(seed) and on rand.New(rand.NewSource(seed)), and
// requires equal results and, at the end, both streams at the same
// position. Op o%6: 0 Uint64, 1 Int63, 2 Float64, 3 ExpFloat64, 4
// Perm(o/6 % 17), 5 a cutoff draw against Float64() < p.
func checkSourceMatchesStdlib(t *testing.T, seed int64, p float64, ops []byte, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	src, rng := newFibSource(seed)
	c := cutoffOf(p)
	for i := 0; i < n && len(ops) > 0; i++ {
		o := ops[i%len(ops)]
		switch o % 6 {
		case 0:
			if w, g := want.Uint64(), src.Uint64(); w != g {
				t.Fatalf("seed %d op %d: Uint64 %d, stdlib %d", seed, i, g, w)
			}
		case 1:
			if w, g := want.Int63(), src.Int63(); w != g {
				t.Fatalf("seed %d op %d: Int63 %d, stdlib %d", seed, i, g, w)
			}
		case 2:
			if w, g := want.Float64(), src.Float64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d op %d: Float64 %v, stdlib %v", seed, i, g, w)
			}
		case 3:
			if w, g := want.ExpFloat64(), rng.ExpFloat64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d op %d: ExpFloat64 %v, stdlib %v", seed, i, g, w)
			}
		case 4:
			m := int(o/6) % 17
			w, g := want.Perm(m), rng.Perm(m)
			for j := range w {
				if w[j] != g[j] {
					t.Fatalf("seed %d op %d: Perm(%d) %v, stdlib %v", seed, i, m, g, w)
				}
			}
		case 5:
			if w, g := want.Float64() < p, src.below(c); w != g {
				t.Fatalf("seed %d op %d: cutoff draw at p=%v gives %v, Float64() < p gives %v", seed, i, p, g, w)
			}
		}
	}
	for k := 0; k < 3; k++ {
		if w, g := want.Int63(), src.Int63(); w != g {
			t.Fatalf("seed %d: streams out of step after %d ops", seed, n)
		}
	}
}

func TestSourceMatchesStdlib(t *testing.T) {
	ops := make([]byte, 251) // prime, so the op mix drifts against any period
	mix := rand.New(rand.NewSource(42))
	for i := range ops {
		ops[i] = byte(mix.Intn(256))
	}
	n := 100_000 // 1.4 M operations over the 14 seeds
	if testing.Short() {
		n = 10_000
	}
	for _, seed := range sourceSeeds {
		checkSourceMatchesStdlib(t, seed, 0.37, ops, n)
	}
}

// The cutoff draw must agree with Float64() < p everywhere, so the test
// aims p at the stdlib's own draws: at each drawn value f, at its float
// neighbours, and at fixed probabilities (0, 1, 2^-60, 1-2^-53 and
// values outside [0, 1]), then replays the stream with the cutoff.
func TestCutoffMatchesFloat64(t *testing.T) {
	fixed := []float64{0, 1, 0x1p-60, 1 - 0x1p-53, 0x1p-63, 0x1p-64, 0.5, 0.893, -1, 2, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.Nextafter(1, 0), math.Nextafter(1, 2)}
	const n = 20_000
	for _, seed := range sourceSeeds {
		peek := rand.New(rand.NewSource(seed))
		ps := make([]float64, n)
		for i := range ps {
			f := peek.Float64()
			switch i % 5 {
			case 0:
				ps[i] = f
			case 1:
				ps[i] = math.Nextafter(f, 0)
			case 2:
				ps[i] = math.Nextafter(f, 1)
			case 3:
				ps[i] = math.Nextafter(math.Nextafter(f, 1), 1)
			case 4:
				ps[i] = fixed[(i/5)%len(fixed)]
			}
		}
		want := rand.New(rand.NewSource(seed))
		src, _ := newFibSource(seed)
		for i, p := range ps {
			if w, g := want.Float64() < p, src.below(cutoffOf(p)); w != g {
				t.Fatalf("seed %d draw %d, p = %v: cutoff draw %v, Float64() < p %v", seed, i, p, g, w)
			}
		}
		if want.Int63() != src.Int63() {
			t.Fatalf("seed %d: streams out of step", seed)
		}
	}
}

// Draws in [2^63-512, 2^63) round to 1.0, which Float64 redraws; such
// a draw comes once in 2^54, so the source is steered onto one and the
// cutoff draw is compared with math/rand's Float64 over a copy.
func TestCutoffRedrawBand(t *testing.T) {
	for _, x := range []int64{fibRedraw - 1, fibRedraw, fibRedraw + 1, math.MaxInt64} {
		for _, p := range []float64{0, 0.25, 1 - 0x1p-53, 1, 2} {
			src, _ := newFibSource(3)
			// The next output is vec[feed-1] + vec[tap-1].
			feed, tap := (src.feed+fibLen-1)%fibLen, (src.tap+fibLen-1)%fibLen
			src.vec[feed] = x - src.vec[tap]
			cp := *src
			want := rand.New(&cp)
			if w, g := want.Float64() < p, src.below(cutoffOf(p)); w != g {
				t.Fatalf("draw %d, p = %v: cutoff draw %v, Float64() < p %v", x, p, g, w)
			}
			if want.Int63() != src.Int63() {
				t.Fatalf("draw %d, p = %v: streams out of step", x, p)
			}
		}
	}
}

// A geometric mean above 1 must keep drawing: its continuation 1-1/mean
// is positive, so its cutoff is nonzero (0 means "no draw").
func TestGeometricCutoffNonzeroAboveOne(t *testing.T) {
	for _, mean := range []float64{math.Nextafter(1, 2), 1 + 1e-12, 1.5, 3.275, 12, 1e300} {
		spec := Spec{BurstMean: mean, TrimPages: mean, AvgReqPages: mean}
		if c := spec.cutoffs(); c.burst == 0 || c.trimLen == 0 || c.reqLen == 0 {
			t.Errorf("mean %v: zero cutoff %+v", mean, c)
		}
	}
	if c := (Spec{BurstMean: 1, TrimPages: 0.5, AvgReqPages: -3}).cutoffs(); c.burst != 0 || c.trimLen != 0 || c.reqLen != 0 {
		t.Errorf("means <= 1: cutoffs %+v, want 0 (no draw)", c)
	}
}

// The reciprocal reduction in scramble is x % n for every x and n.
func TestModulusMatchesRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ns := []uint64{1, 2, 3, 7, 2105, 1 << 16, 1<<20 + 1, 1 << 36, 1<<63 - 25, 1 << 63, 1<<64 - 1}
	for i := 0; i < 64; i++ {
		ns = append(ns, rng.Uint64()>>uint(rng.Intn(64)))
	}
	for _, n := range ns {
		if n == 0 {
			continue
		}
		d := newModulus(n)
		xs := []uint64{0, 1, n - 1, n, n + 1, 2*n - 1, 2 * n, 1<<64 - 1, 1<<64 - 2, (1<<64 - 1) / n * n, (1<<64-1)/n*n - 1}
		for j := 0; j < 1000; j++ {
			xs = append(xs, rng.Uint64())
		}
		for _, x := range xs {
			if g, w := d.reduce(x), x%n; g != w {
				t.Fatalf("%d mod %d: %d, want %d", x, n, g, w)
			}
		}
	}
}

// FuzzSourceMatchesStdlib is the open-ended form of the two tests
// above: a seed, a probability and an op string. The seed corpus under
// testdata/fuzz/FuzzSourceMatchesStdlib pins the seed classes and the
// probabilities at the edges.
func FuzzSourceMatchesStdlib(f *testing.F) {
	f.Add(int64(0), 0.5, []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(-3), 0x1p-60, []byte{5, 5, 2, 5})
	f.Add(int64(1<<31-1), 1-0x1p-53, []byte{5, 3, 10})
	f.Fuzz(func(t *testing.T, seed int64, p float64, ops []byte) {
		if math.IsNaN(p) {
			t.Skip() // Spec.Validate rejects it: the one p a cutoff cannot express
		}
		checkSourceMatchesStdlib(t, seed, p, ops, 5_000)
	})
}
