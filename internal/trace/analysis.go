package trace

import (
	"cagc/internal/dedup"
	"cagc/internal/metrics"
)

// RefcountAnalysis performs the paper's Figure-6 analysis directly on a
// trace, the way the authors did it: pure content accounting with no
// device model. Every write binds its logical page to a content
// (reference count +1 on the shared copy); every overwrite or trim
// drops a reference; when a content's last reference disappears the
// "page" becomes invalid and its peak reference count is recorded.
//
// The distribution answers: invalid pages came from pages of which
// reference count? (Paper: >80% from refcount 1.) The zero value is
// ready to use; Add takes the requests in stream order.
type RefcountAnalysis struct {
	Dist     metrics.RefcountDist
	contents map[dedup.Fingerprint]*refContent
	bound    map[uint64]dedup.Fingerprint
}

type refContent struct {
	ref  int
	peak int
}

// AnalyzeRefcounts drains src through a RefcountAnalysis.
func AnalyzeRefcounts(src Source) metrics.RefcountDist {
	var a RefcountAnalysis
	for {
		r, ok := src.Next()
		if !ok {
			return a.Dist
		}
		a.Add(r)
	}
}

// Add accounts for one request.
func (a *RefcountAnalysis) Add(r Request) {
	if a.contents == nil {
		a.contents = make(map[dedup.Fingerprint]*refContent)
		a.bound = make(map[uint64]dedup.Fingerprint)
	}
	switch r.Op {
	case OpWrite:
		for i := 0; i < r.Pages; i++ {
			lpn := r.LPN + uint64(i)
			a.release(lpn)
			fp := r.FPs[i]
			c := a.contents[fp]
			if c == nil {
				c = &refContent{}
				a.contents[fp] = c
			}
			c.ref++
			if c.ref > c.peak {
				c.peak = c.ref
			}
			a.bound[lpn] = fp
		}
	case OpTrim:
		for i := 0; i < r.Pages; i++ {
			a.release(r.LPN + uint64(i))
		}
	}
}

func (a *RefcountAnalysis) release(lpn uint64) {
	fp, ok := a.bound[lpn]
	if !ok {
		return
	}
	delete(a.bound, lpn)
	c := a.contents[fp]
	c.ref--
	if c.ref == 0 {
		a.Dist.Add(c.peak)
		delete(a.contents, fp)
	}
}
