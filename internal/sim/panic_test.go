package sim

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/pool"
	"cagc/internal/trace"
)

// armedPanicPolicy is greedy until armed, then panics in Select — a
// stand-in for any bug deep inside a run.
type armedPanicPolicy struct{ armed *atomic.Bool }

func (p armedPanicPolicy) Name() string { return "armed-panic" }

func (p armedPanicPolicy) Select(now event.Time, v ftl.VictimView) flash.BlockID {
	if p.armed.Load() {
		panic("armed victim policy")
	}
	return ftl.GreedyPolicy{}.Select(now, v)
}

// A run that panics mid-replay must not leak a live clone, park its
// runner or leave its decode-ahead producer running: the panic leaves
// RunWarmRecycled with the gauge released and the ring closed, and
// under RunBatch the pool turns it into that run's *pool.PanicError.
// Once disarmed, the snapshot serves runs as before.
func TestPanickingRunBalancesGauge(t *testing.T) {
	armed := new(atomic.Bool)
	opts := ftl.CAGCOptions()
	opts.Policy = armedPanicPolicy{armed}
	cfg := smallConfig(opts)
	spec := specFor(t, cfg, trace.Mail, trace.AheadMinRequests+1000)
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	// One clean run parks a runner, so the armed run below is recycled.
	if _, err := RunWarmRecycled(snap, cfg, spec); err != nil {
		t.Fatal(err)
	}
	before := CloneGaugeStats()
	base := runtime.NumGoroutine()
	armed.Store(true)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("armed run did not panic")
			}
		}()
		RunWarmRecycled(snap, cfg, spec)
	}()
	if live := CloneGaugeStats().Live; live != before.Live {
		t.Fatalf("panicking run left live clones at %d, want %d", live, before.Live)
	}
	settleGoroutines(t, base, "panicking run")
	_, errs := RunBatch([]BatchRun{{snap, cfg, spec}, {snap, cfg, spec}, {snap, cfg, spec}}, 2)
	var pe *pool.PanicError
	if !errors.As(pool.First(errs), &pe) {
		t.Fatalf("batch errors %v, want a *pool.PanicError", errs)
	}
	if live := CloneGaugeStats().Live; live != before.Live {
		t.Fatalf("panicking batch left live clones at %d, want %d", live, before.Live)
	}
	settleGoroutines(t, base, "panicking batch")
	snap.mu.Lock()
	parked := len(snap.free)
	snap.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d panicked runners parked on the free-list", parked)
	}
	armed.Store(false)
	if _, err := RunWarmRecycled(snap, cfg, spec); err != nil {
		t.Fatal(err)
	}
}
