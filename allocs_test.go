package cagc

import (
	"runtime"
	"testing"
)

// A generated run allocates nothing per request: every trace source
// recycles its fingerprint buffer and the decode-ahead ring its chunk
// slabs, so four times the requests cost no more allocated bytes,
// within slack for the runtime's own bookkeeping. Cold starts keep the
// device build and the precondition fill identical at both lengths.
func TestGeneratedRunAllocationFlat(t *testing.T) {
	for _, c := range []struct {
		w Workload
		s Scheme
	}{{WebVM, Baseline}, {Mail, CAGC}, {Homes, InlineDedupe}} {
		allocated := func(n int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(c.w, c.s, "greedy", Params{Requests: n, ColdStart: true})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != uint64(n) {
				t.Fatalf("%s/%s: replayed %d of %d requests", c.w, c.s, res.Requests, n)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		allocated(20_000) // pools and tables the first run fills
		short, long := allocated(20_000), allocated(80_000)
		t.Logf("%s/%s: %d B for 20 000 requests, %d B for 80 000", c.w, c.s, short, long)
		if long > short+256<<10 {
			t.Errorf("%s/%s: 80 000 requests allocated %d B, 20 000 allocated %d B", c.w, c.s, long, short)
		}
	}
}
