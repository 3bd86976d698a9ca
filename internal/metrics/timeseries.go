package metrics

import (
	"sort"

	"cagc/internal/event"
)

// TimeSeries aggregates observations into fixed-width windows of
// virtual time — the view that makes GC interference visible as
// latency spikes aligned with collection activity.
//
// No run records into one by default: a series grows with simulated
// time, so the replay loop keeps none. Windows at nonnegative time live
// in a dense slice indexed by window number, so Record is a
// bounds-checked array update with no per-observation allocation; the
// pathological negative-time case falls back to a lazily built map.
type TimeSeries struct {
	width event.Time
	pos   []windowAgg          // window k at [k*width, (k+1)*width), k >= 0
	neg   map[int64]*windowAgg // rare: observations before time zero
}

type windowAgg struct {
	count uint64
	sum   float64
	max   event.Time
}

func (w *windowAgg) record(v event.Time) {
	w.count++
	w.sum += float64(v)
	if v > w.max {
		w.max = v
	}
}

// WindowStat is one exported window.
type WindowStat struct {
	Start event.Time // window start (inclusive)
	Count uint64
	Mean  float64 // mean observation (ns)
	Max   event.Time
}

// NewTimeSeries makes a series with the given window width (values <= 0
// default to 10 ms).
func NewTimeSeries(width event.Time) *TimeSeries {
	if width <= 0 {
		width = 10 * event.Millisecond
	}
	return &TimeSeries{width: width}
}

// Width returns the window width.
func (ts *TimeSeries) Width() event.Time { return ts.width }

// Record adds an observation v occurring at time at.
func (ts *TimeSeries) Record(at event.Time, v event.Time) {
	if v < 0 {
		v = 0
	}
	k := int64(at / ts.width)
	if k < 0 {
		if ts.neg == nil {
			ts.neg = make(map[int64]*windowAgg)
		}
		w := ts.neg[k]
		if w == nil {
			w = &windowAgg{}
			ts.neg[k] = w
		}
		w.record(v)
		return
	}
	for int64(len(ts.pos)) <= k {
		ts.pos = append(ts.pos, windowAgg{})
	}
	ts.pos[k].record(v)
}

func (ts *TimeSeries) stat(k int64, w *windowAgg) WindowStat {
	return WindowStat{
		Start: event.Time(k) * ts.width,
		Count: w.count,
		Mean:  w.sum / float64(w.count),
		Max:   w.max,
	}
}

// Windows exports the populated windows in time order.
func (ts *TimeSeries) Windows() []WindowStat {
	keys := make([]int64, 0, len(ts.neg))
	for k := range ts.neg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]WindowStat, 0, len(keys)+len(ts.pos))
	for _, k := range keys {
		out = append(out, ts.stat(k, ts.neg[k]))
	}
	for k := range ts.pos {
		if w := &ts.pos[k]; w.count > 0 {
			out = append(out, ts.stat(int64(k), w))
		}
	}
	return out
}

// Peak returns the window with the highest max observation, the
// earliest such window on ties (zero value when empty).
func (ts *TimeSeries) Peak() WindowStat {
	var best WindowStat
	for _, w := range ts.Windows() {
		if best.Count == 0 || w.Max > best.Max {
			best = w
		}
	}
	return best
}
