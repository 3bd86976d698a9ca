package trace

import (
	"container/heap"

	"cagc/internal/event"
)

// Trace composition utilities: merge concurrent request streams (e.g.,
// a mail server and a web server sharing one SSD — the consolidation
// scenario the paper's enterprise-storage motivation implies) and
// rescale arrival rates.

// mergeItem is one source's head inside the merge heap.
type mergeItem struct {
	req Request
	src int
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].req.At != h[j].req.At {
		return h[i].req.At < h[j].req.At
	}
	return h[i].src < h[j].src // deterministic tie-break
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// Merger interleaves several request streams by arrival time. Each
// source must itself be time-ordered (all generators and readers are).
// It implements ErrSource: a decode failure in any input ends the
// merged stream immediately and surfaces through Err.
type Merger struct {
	h    mergeHeap
	srcs []Source
	err  error
	fps  fpScratch // the returned request's fingerprints
}

// Merge builds a k-way time-ordered merge of the sources. Sources with
// overlapping address spaces genuinely share pages; to model separate
// tenants, give each source a disjoint LPN range (see Offset).
func Merge(sources ...Source) *Merger {
	m := &Merger{srcs: sources}
	for i, s := range sources {
		if r, ok := s.Next(); ok {
			m.h = append(m.h, mergeItem{req: r, src: i})
		} else if err := SourceErr(s); err != nil && m.err == nil {
			m.err = err
		}
	}
	heap.Init(&m.h)
	return m
}

// Next implements Source.
func (m *Merger) Next() (Request, bool) {
	if m.err != nil || len(m.h) == 0 {
		return Request{}, false
	}
	it := heap.Pop(&m.h).(mergeItem)
	// Refilling this source recycles its fingerprint buffer, so the
	// head leaves with a copy.
	if fps := it.req.FPs; fps != nil {
		it.req.FPs = m.fps.take(len(fps))
		copy(it.req.FPs, fps)
	}
	if r, ok := m.srcs[it.src].Next(); ok {
		heap.Push(&m.h, mergeItem{req: r, src: it.src})
	} else if err := SourceErr(m.srcs[it.src]); err != nil {
		// Fail the whole merge rather than silently dropping one
		// tenant's tail while the others play on.
		m.err = err
		return Request{}, false
	}
	return it.req, true
}

// Err implements ErrSource.
func (m *Merger) Err() error { return m.err }

// Offset shifts every request's logical address by base — the tool for
// giving merged tenants disjoint address ranges. It implements Source.
type Offset struct {
	Src  Source
	Base uint64
}

// Next implements Source.
func (o *Offset) Next() (Request, bool) {
	r, ok := o.Src.Next()
	if !ok {
		return Request{}, false
	}
	r.LPN += o.Base
	return r, true
}

// Err implements ErrSource by delegating to the wrapped source.
func (o *Offset) Err() error { return SourceErr(o.Src) }

// TimeScale stretches (>1) or compresses (<1) inter-arrival gaps of a
// stream, preserving order. It implements Source.
type TimeScale struct {
	Src    Source
	Factor float64

	started bool
	base    event.Time
}

// Next implements Source.
func (t *TimeScale) Next() (Request, bool) {
	r, ok := t.Src.Next()
	if !ok {
		return Request{}, false
	}
	if !t.started {
		t.base = r.At
		t.started = true
	}
	f := t.Factor
	if f <= 0 {
		f = 1
	}
	r.At = t.base + event.Time(float64(r.At-t.base)*f)
	return r, true
}

// Err implements ErrSource by delegating to the wrapped source.
func (t *TimeScale) Err() error { return SourceErr(t.Src) }
