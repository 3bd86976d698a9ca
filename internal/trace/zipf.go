package trace

import (
	"math"
	"sync"
)

// zipf is an exact accelerator for math/rand.Zipf: for any (s, v, imax)
// and any source state, Uint64 returns the value rand.NewZipf(
// rand.New(rng), s, v, imax).Uint64() would return and leaves rng where
// the stdlib would leave it. It is a drop-in for the stdlib type, not a
// different sampler, which is why every generated trace is unchanged.
// It draws on the generator's own fibSource, the same stream as every
// other draw of the request, with a direct Float64 call.
//
// The stdlib draws by rejection-inversion (Hörmann & Derflinger): per
// iteration one r = rng.Float64(), ur = hxm + r*hx0minusHxm, x =
// hinv(ur), k = floor(x+0.5); accept if k-x <= s, else if ur >=
// h(k+0.5) - exp(-log(k+v)*q); else loop. hinv and the slow test cost
// an exp and a log each. zipf keeps that loop and that one Float64 per
// iteration, computes the same ur with the same expression, and reads
// the two decisions off precomputed thresholds in ur space instead:
//
//   - h is increasing, so k is certified by lo = h(k-0.5+g) <= ur <=
//     hi = h(k+0.5-g);
//   - the quick test k-x <= s is certified true by ur >= accLo =
//     h(k-s+g) and false by ur <= rejHi = h(k-s-g);
//   - the slow test's right-hand side depends on k alone and is stored
//     as the stdlib's own expression evaluates it, so that comparison
//     is the stdlib's, not an approximation of it.
//
// g = zipfGuard is a guard band in rank (x) space. A draw whose ur lands
// inside a guard band, or on a rank the table does not hold, runs the
// stdlib's loop body on that same ur — never a redraw — so the result
// is the stdlib's whether or not the table was consulted. (Expressions
// shared with the stdlib keep its shape on purpose: where the compiler
// fuses multiply-adds, arm64 for one, it must fuse the same ones; the
// fuzz target is the check there.)
//
// Error budget. A threshold is wrong only if the float hinv(ur) the
// stdlib computes and the float h(·) stored here disagree, in x, by
// more than g. With u = 2^-53, math.Exp and math.Log within one ulp,
// a = 1/(q-1) and L = ln(v+x), propagating the roundings through
// hinv(ur) = exp(a'·log(b·ur)) - v gives |Δx| <= u(v+x)(2a+4L+3)
// (including a'·b != 1 exactly), through h(x) = exp(b·log(v+x))·a'
// gives |Δx| <= u(v+x)(3a+3L+2), and forming x+0.5 adds u(v+x):
// errBound bounds the sum by u(v+x)(5a+7L+6). At x < 1024, v = 1 that
// is 2.5e-11 for s = 1.03 and 5.7e-9 for s = 1.0001, against g = 1e-6.
// The a term grows without bound as s -> 1, so a rank is tabled only
// while errBound <= g/8 (and while its thresholds are strictly ordered
// and far from underflow, which bounds large s): below s - 1 ≈ 1e-8
// no rank qualifies, the table is empty and every draw takes the
// stdlib's path.
type zipf struct {
	rng *fibSource
	*zipfTable
}

const (
	// zipfGuard is the guard-band half-width g, in rank space.
	zipfGuard = 1e-6
	// zipfMaxRanks caps the tabled ranks: 40 KB of thresholds, and the
	// error budget above is stated for x below it.
	zipfMaxRanks = 1024
	// zipfBuckets is the guide-table resolution over r; a power of two,
	// so r*zipfBuckets is exact.
	zipfBuckets = 2048
)

// zipfRank holds rank k's thresholds in ur space, in increasing order
// lo < rejHi < accLo < hi, plus the slow test's right-hand side.
type zipfRank struct {
	lo, rejHi, accLo, hi float64
	slow                 float64
}

// zipfTable is the immutable, shareable part of a zipf: the stdlib's
// derived parameters under the stdlib's names, the certified ranks
// (ranks[k+1] is rank k; ranks[0] is a sentinel no ur certifies, which
// ends the downward scan and sends the draw to the exact path), and the
// guide: for each bucket of r, the index of the highest rank whose lo
// a ur in the bucket can reach, where lookup's downward scan starts.
type zipfTable struct {
	imax         uint64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64

	ranks []zipfRank
	guide [zipfBuckets]uint16
}

func (t *zipfTable) h(x float64) float64 {
	return math.Exp(t.oneminusQ*math.Log(t.v+x)) * t.oneminusQinv
}

func (t *zipfTable) hinv(x float64) float64 {
	return math.Exp(t.oneminusQinv*math.Log(t.oneminusQ*x)) - t.v
}

// errBound bounds, in rank space, the disagreement between the stdlib's
// float hinv and this file's float thresholds at rank x (see zipf).
func (t *zipfTable) errBound(x float64) float64 {
	const u = 0x1p-53
	return u * (t.v + x) * (5/(t.q-1) + 7*math.Log(t.v+x) + 6)
}

// buildZipfTable derives the stdlib's parameters with the stdlib's
// expressions (rand.NewZipf) and tables as many leading ranks as can be
// certified.
func buildZipfTable(s, v float64, imax uint64) *zipfTable {
	t := &zipfTable{imax: imax, v: v, q: s}
	t.oneminusQ = 1.0 - t.q
	t.oneminusQinv = 1.0 / t.oneminusQ
	t.hxm = t.h(float64(imax) + 0.5)
	t.hx0minusHxm = t.h(0.5) - math.Exp(math.Log(t.v)*(-t.q)) - t.hxm
	t.s = 1 - t.hinv(t.h(1.5)-math.Exp(-t.q*math.Log(t.v+1.0)))

	const g = zipfGuard
	t.ranks = []zipfRank{{lo: math.Inf(-1), hi: math.Inf(-1)}}
	for k := 0.0; k < zipfMaxRanks && k <= float64(imax); k++ {
		e := zipfRank{
			lo:    t.h(k - 0.5 + g),
			rejHi: t.h(k - t.s - g),
			accLo: t.h(k - t.s + g),
			hi:    t.h(k + 0.5 - g),
			slow:  t.h(k+0.5) - math.Exp(-math.Log(k+t.v)*t.q),
		}
		prev := t.ranks[len(t.ranks)-1].hi
		// Written so that a NaN anywhere fails the test.
		if !(t.errBound(k+1) <= g/8 && prev < e.lo && e.lo < e.rejHi &&
			e.rejHi < e.accLo && e.accLo < e.hi && e.hi < -0x1p-900) {
			break
		}
		t.ranks = append(t.ranks, e)
	}

	// ur falls as r rises (hx0minusHxm < 0), so bucket b's largest ur is
	// that of r = b/B.
	i := len(t.ranks) - 1
	for b := range t.guide {
		ur0 := t.hxm + float64(b)/zipfBuckets*t.hx0minusHxm
		for t.ranks[i].lo > ur0 {
			i--
		}
		t.guide[b] = uint16(i)
	}
	return t
}

// zipfTables caches the tables process-wide, most recently used first:
// they are pure functions of their key, and batch and fleet runs build
// a generator per device per thousand requests, where rebuilding ~50 KB
// of thresholds each time would cost more than the tables save. The
// bound keeps a long-lived server's footprint fixed under arbitrary
// device sizes.
var zipfTables struct {
	sync.Mutex
	mru []*zipfTable
}

const zipfCacheCap = 32

// newZipf returns the sampler rand.NewZipf(rand.New(rng), s, v, imax)
// would, which requires s > 1 and v >= 1.
func newZipf(rng *fibSource, s, v float64, imax uint64) zipf {
	c := &zipfTables
	c.Lock()
	defer c.Unlock()
	for i, t := range c.mru {
		if t.q == s && t.v == v && t.imax == imax {
			copy(c.mru[1:i+1], c.mru[:i])
			c.mru[0] = t
			return zipf{rng, t}
		}
	}
	t := buildZipfTable(s, v, imax)
	if len(c.mru) < zipfCacheCap {
		c.mru = append(c.mru, nil)
	}
	copy(c.mru[1:], c.mru)
	c.mru[0] = t
	return zipf{rng, t}
}

// Uint64 returns the next variate; see zipf.
func (z zipf) Uint64() uint64 {
	t := z.zipfTable
	for {
		r := z.rng.Float64()
		ur := t.hxm + r*t.hx0minusHxm
		k, accept, ok := t.lookup(int(t.guide[int(r*zipfBuckets)]), ur)
		if !ok {
			k, accept = t.exact(ur)
		}
		if accept {
			return k
		}
	}
}

// lookup scans down from ranks[start] to the rank whose lo ur reaches
// and reports its decision if ur certifies one. The start is only a
// hint: a start below ur's rank fails the hi test, so a wrong hint
// costs the exact path, never a wrong answer.
func (t *zipfTable) lookup(start int, ur float64) (k uint64, accept, ok bool) {
	i := start
	for ur < t.ranks[i].lo {
		i--
	}
	if e := &t.ranks[i]; ur <= e.hi {
		if ur >= e.accLo {
			return uint64(i - 1), true, true
		}
		if ur <= e.rejHi {
			return uint64(i - 1), ur >= e.slow, true
		}
	}
	return 0, false, false
}

// exact is the stdlib's loop body, verbatim, on a given ur.
func (t *zipfTable) exact(ur float64) (uint64, bool) {
	x := t.hinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= t.s {
		return uint64(k), true
	}
	return uint64(k), ur >= t.h(k+0.5)-math.Exp(-math.Log(k+t.v)*t.q)
}
