package trace

import "slices"

// SliceSource replays a fixed request slice.
type SliceSource struct {
	Reqs []Request
	pos  int
}

// Next implements Source.
func (s *SliceSource) Next() (Request, bool) {
	if s.pos >= len(s.Reqs) {
		return Request{}, false
	}
	r := s.Reqs[s.pos]
	s.pos++
	return r, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Collect drains a source into a slice, cloning each request's
// fingerprints (beware memory on long streams).
func Collect(src Source) []Request {
	var out []Request
	for {
		r, ok := src.Next()
		if !ok {
			return out
		}
		r.FPs = slices.Clone(r.FPs)
		out = append(out, r)
	}
}

// Contains reports whether lpn falls in the tenant's namespace.
func (t TenantRange) Contains(lpn uint64) bool {
	return lpn >= t.Base && lpn-t.Base < t.Pages
}
