package trace

import "math/rand"

// fibSource is math/rand's lagged-Fibonacci source (x[n] = x[n-273] +
// x[n-607] mod 2^64), held as a concrete type so the generator's draws
// are direct, inlinable calls instead of calls through rand.Source. It
// reproduces rand.NewSource(seed) bit for bit: the stdlib's 607-word
// register is not exported, so newFibSource reads it back out of the
// stdlib source's first 607 outputs. Each of those steps overwrites
// vec[feed] with vec[feed] + vec[tap], and in 607 steps feed visits
// every slot exactly once, so after them vec[feed_i] holds output i;
// undoing the steps in reverse (vec[feed_i] -= vec[tap_i]) restores the
// seeded register. Nothing of the stdlib's seeding table is copied.
//
// Float64 is the stdlib's expression. ExpFloat64 and Perm go through
// rand.New over the same state (rng), so every draw, concrete or not,
// advances one stream.
type fibSource struct {
	tap, feed int
	vec       [fibLen]int64
}

const fibLen, fibTap = 607, 273

// newFibSource returns the source rand.NewSource(seed) would, and a
// *rand.Rand over it for the draws that stay in math/rand.
func newFibSource(seed int64) (*fibSource, *rand.Rand) {
	s := &fibSource{}
	s.Seed(seed)
	return s, rand.New(s)
}

// Seed implements rand.Source.
func (s *fibSource) Seed(seed int64) {
	std := rand.NewSource(seed).(rand.Source64)
	s.tap, s.feed = 0, fibLen-fibTap
	for range fibLen {
		s.Uint64() // only to step tap and feed
		s.vec[s.feed] = int64(std.Uint64())
	}
	for range fibLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%fibLen, (s.feed+1)%fibLen
	}
}

// Uint64 implements rand.Source64.
func (s *fibSource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += fibLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += fibLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *fibSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Float64 is (*rand.Rand).Float64 on this source.
func (s *fibSource) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// cutoff is a probability p as an Int63 threshold: below(cutoffOf(p))
// draws exactly what Float64() < p would. float64(x)/2^63 is
// nondecreasing in x, so {x : Float64 gives x/2^63 < p} is a prefix
// [0, c); draws at or above fibRedraw round to 1.0, which Float64
// redraws, so below redraws them too. A NaN p is the one value where
// the two differ (Float64() < NaN is false, the cutoff is the whole
// range); Spec.Validate rejects it.
type cutoff uint64

// fibRedraw is the least x whose float64(x)/2^63 rounds to 1.0.
const fibRedraw = 1<<63 - 512

// cutoffOf returns the least x with float64(x)/2^63 >= p, by bisection
// over [0, fibRedraw].
func cutoffOf(p float64) cutoff {
	lo, hi := uint64(0), uint64(fibRedraw)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return cutoff(lo)
}

// below reports Float64() < p for the p that c was made from, drawing
// the same Int63s.
func (s *fibSource) below(c cutoff) bool {
	for {
		if x := uint64(s.Int63()); x < fibRedraw {
			return x < uint64(c)
		}
	}
}
