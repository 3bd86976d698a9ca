package metrics

import "cagc/internal/event"

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() event.Time { return h.min }

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }
