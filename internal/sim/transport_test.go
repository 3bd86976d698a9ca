package sim_test

import (
	"bytes"
	"testing"

	"cagc"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// The decode-ahead ring is a transport, not a transform: a long warm run
// — whose generator Measure puts one ring ahead of the replay — renders
// the same summary document, byte for byte, as the same generator fed
// straight to Replay on the consumer's goroutine. Three presets × three
// schemes, open loop and QueueDepth 1/8/32. CI runs it at -cpu 1,2 so
// one-core and two-core scheduling are both gated.
func TestAheadIsATransport(t *testing.T) {
	schemes := []ftl.Options{ftl.BaselineOptions(), ftl.InlineDedupeOptions(), ftl.CAGCOptions()}
	for _, w := range []trace.WorkloadName{trace.Homes, trace.WebVM, trace.Mail} {
		for _, opts := range schemes {
			base := sim.Config{Device: flash.ScaledConfig(16 << 20), Options: opts, Utilization: 0.55}
			spec, err := trace.Preset(w, sim.LogicalPagesOf(base), trace.AheadMinRequests+1000, 42)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := sim.NewSnapshot(base, spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, qd := range []int{0, 1, 8, 32} {
				cfg := base
				cfg.QueueDepth = qd
				ahead, err := sim.RunWarmRecycled(snap, cfg, spec)
				if err != nil {
					t.Fatal(err)
				}
				plain := replayPlain(t, snap, cfg, spec)
				if a, p := document(t, ahead), document(t, plain); !bytes.Equal(a, p) {
					t.Fatalf("%s/%s qd %d: ahead document differs from plain:\n%s\nvs\n%s",
						w, opts.SchemeName(), qd, a, p)
				}
			}
		}
	}
}

// replayPlain replays spec's generator on the consumer's goroutine, the
// path every run took before generation went ahead.
func replayPlain(t *testing.T, snap *sim.Snapshot, cfg sim.Config, spec trace.Spec) *sim.Result {
	t.Helper()
	r, err := snap.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release(r)
	gen, err := trace.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Replay(gen, snap.Offset(), spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return res
}

func document(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := cagc.WriteJSON(&b, res); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
