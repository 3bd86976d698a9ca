package sim

import (
	"testing"

	"cagc/internal/trace"
)

// Run is the one-call entry point: build, precondition, replay.
func Run(cfg Config, spec trace.Spec) (*Result, error) {
	return Measure(nil, cfg, spec, Measured{})
}

// drainParked empties the process-wide parked list, so a test counts
// fresh and recycled acquires from a known state.
func drainParked() {
	g := &recycler
	g.mu.Lock()
	clear(g.parked)
	g.parked = g.parked[:0]
	g.mu.Unlock()
}

// fixParkCap fixes the parked-list cap at n for the rest of t and
// restores the GOMAXPROCS default after it.
func fixParkCap(t testing.TB, n int) {
	(*Snapshot)(nil).SetFreeListCap(n)
	t.Cleanup(func() {
		g := &recycler
		g.mu.Lock()
		g.fixed = false
		g.mu.Unlock()
	})
}
