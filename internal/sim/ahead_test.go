package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"cagc/internal/ftl"
	"cagc/internal/trace"
)

// settleGoroutines fails the test unless the goroutine count falls back
// to base within a short deadline: a replay that ended early must not
// leave its ring's producer behind.
func settleGoroutines(t *testing.T, base int, label string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want <= %d (a producer leaked)", label, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// A deadline that stops a long replay mid-trace — open loop or closed
// loop — releases the decode-ahead producer and balances the clone
// gauge. The trace is far too long to finish inside the deadline.
func TestDeadlineReleasesProducer(t *testing.T) {
	cfg := smallConfig(ftl.CAGCOptions())
	spec := specFor(t, cfg, trace.Mail, 400_000)
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, qd := range []int{0, 8} {
		base := runtime.NumGoroutine()
		before := CloneGaugeStats()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		run := cfg
		run.Ctx = ctx
		run.QueueDepth = qd
		_, err := RunWarmRecycled(snap, run, spec)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("qd %d: want context.DeadlineExceeded, got %v", qd, err)
		}
		if live := CloneGaugeStats().Live; live != before.Live {
			t.Fatalf("qd %d: live clones %d, want %d", qd, live, before.Live)
		}
		settleGoroutines(t, base, "deadline")
	}
}
