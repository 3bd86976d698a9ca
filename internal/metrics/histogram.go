// Package metrics provides the measurement substrate for the simulator:
// an HDR-style latency histogram with percentiles and CDF extraction,
// and the reference-count-at-invalidation distribution behind Figure 6.
package metrics

import (
	"fmt"
	"math"
	"math/bits"

	"cagc/internal/event"
)

// subBuckets is the number of linear sub-buckets per power-of-two
// bucket. 32 gives ~3% relative resolution, plenty for latency CDFs.
const subBuckets = 32

// maxBuckets covers values up to 2^62 ns (~146 years of virtual time).
const maxBuckets = 63

// Histogram records non-negative durations with bounded memory and ~3%
// relative error, HdrHistogram-style: a log2 major bucket selected by
// the value's magnitude, split into linear sub-buckets.
//
// The zero value is ready to use.
type Histogram struct {
	counts [maxBuckets][subBuckets]uint64
	n      uint64
	sum    float64
	min    event.Time
	max    event.Time
}

func bucketOf(v event.Time) (int, int) {
	u := uint64(v)
	if u < subBuckets {
		return 0, int(u)
	}
	exp := bits.Len64(u) - 1 // index of highest set bit, >= 5
	major := exp - 4         // values [32,64) land in major 1
	// Position within [2^exp, 2^(exp+1)) scaled to subBuckets slots.
	sub := int((u - 1<<uint(exp)) >> uint(exp-5))
	if major >= maxBuckets {
		major, sub = maxBuckets-1, subBuckets-1
	}
	return major, sub
}

// bucketLow returns the smallest value mapping to (major, sub).
func bucketLow(major, sub int) event.Time {
	if major == 0 {
		return event.Time(sub)
	}
	exp := major + 4
	return event.Time(uint64(1)<<uint(exp) + uint64(sub)<<uint(exp-5))
}

// Record adds one observation. Negative values are clamped to zero.
func (h *Histogram) Record(v event.Time) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	major, sub := bucketOf(v)
	h.counts[major][sub]++
	h.n++
	h.sum += float64(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() event.Time { return h.max }

// Percentile returns the value at quantile p in [0, 1], with bucket
// resolution. Empty histograms return 0.
func (h *Histogram) Percentile(p float64) event.Time {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	if rank >= h.n {
		return h.max
	}
	var seen uint64
	for major := 0; major < maxBuckets; major++ {
		for sub := 0; sub < subBuckets; sub++ {
			c := h.counts[major][sub]
			if c == 0 {
				continue
			}
			seen += c
			if seen >= rank {
				v := bucketLow(major, sub)
				if v > h.max {
					v = h.max
				}
				if v < h.min {
					v = h.min
				}
				return v
			}
		}
	}
	return h.max
}

// CDFPoint is one point of a cumulative distribution: fraction F of
// observations are <= X.
type CDFPoint struct {
	X event.Time
	F float64
}

// CDF returns the cumulative distribution over the populated buckets.
// The final point always has F == 1.
func (h *Histogram) CDF() []CDFPoint {
	if h.n == 0 {
		return nil
	}
	var pts []CDFPoint
	var cum uint64
	for major := 0; major < maxBuckets; major++ {
		for sub := 0; sub < subBuckets; sub++ {
			c := h.counts[major][sub]
			if c == 0 {
				continue
			}
			cum += c
			x := bucketLow(major, sub)
			if x > h.max {
				x = h.max
			}
			pts = append(pts, CDFPoint{X: x, F: float64(cum) / float64(h.n)})
		}
	}
	return pts
}

// FractionBelow returns the share of observations <= x.
func (h *Histogram) FractionBelow(x event.Time) float64 {
	if h.n == 0 {
		return 0
	}
	var cum uint64
	for major := 0; major < maxBuckets; major++ {
		for sub := 0; sub < subBuckets; sub++ {
			if bucketLow(major, sub) > x {
				return float64(cum) / float64(h.n)
			}
			cum += h.counts[major][sub]
		}
	}
	return 1
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i := range h.counts {
		for j := range h.counts[i] {
			h.counts[i][j] += other.counts[i][j]
		}
	}
	h.n += other.n
	h.sum += other.sum
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus p50=%v p99=%v max=%v",
		h.n, h.Mean()/1000, h.Percentile(0.50), h.Percentile(0.99), h.max)
}
