package trace

import (
	"fmt"

	"cagc/internal/dedup"
)

// Characteristics summarizes a request stream the way Table II
// characterizes the FIU traces.
type Characteristics struct {
	Requests   int
	Reads      int
	Writes     int
	WriteRatio float64 // writes / (reads + writes)
	DedupRatio float64 // duplicate written pages / written pages
	AvgReqKB   float64 // mean read+write request size in KiB
	WrittenMB  float64 // total data written
	UniqueFPs  int     // distinct contents seen
}

// Characterize drains src and computes its characteristics. pageSize is
// the page size in bytes.
func Characterize(src Source, pageSize int) Characteristics {
	var c Characteristics
	seen := make(map[dedup.Fingerprint]struct{})
	var rwPages, dupPages, wrPages int
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		c.Requests++
		switch r.Op {
		case OpRead:
			c.Reads++
			rwPages += r.Pages
		case OpWrite:
			c.Writes++
			rwPages += r.Pages
			wrPages += r.Pages
			for _, fp := range r.FPs {
				if _, dup := seen[fp]; dup {
					dupPages++
				} else {
					seen[fp] = struct{}{}
				}
			}
		}
	}
	if rw := c.Reads + c.Writes; rw > 0 {
		c.WriteRatio = float64(c.Writes) / float64(rw)
		c.AvgReqKB = float64(rwPages) * float64(pageSize) / 1024 / float64(rw)
	}
	if wrPages > 0 {
		c.DedupRatio = float64(dupPages) / float64(wrPages)
	}
	c.WrittenMB = float64(wrPages) * float64(pageSize) / (1 << 20)
	c.UniqueFPs = len(seen)
	return c
}

func (c Characteristics) String() string {
	return fmt.Sprintf("reqs=%d write%%=%.1f dedup%%=%.1f avg=%.1fKB written=%.1fMB unique=%d",
		c.Requests, c.WriteRatio*100, c.DedupRatio*100, c.AvgReqKB, c.WrittenMB, c.UniqueFPs)
}
