package sim

import (
	"runtime"
	"testing"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/trace"
)

func smallConfig(opts ftl.Options) Config {
	return Config{
		Device:      flash.ScaledConfig(16 << 20),
		Options:     opts,
		Utilization: 0.55,
	}
}

func specFor(t *testing.T, cfg Config, w trace.WorkloadName, reqs int) trace.Spec {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := trace.Preset(w, r.LogicalPages(), reqs, 42)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRunEndToEndBaseline(t *testing.T) {
	cfg := smallConfig(ftl.BaselineOptions())
	spec := specFor(t, cfg, trace.Homes, 4000)
	res, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 4000 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.Scheme != "Baseline" || res.Workload != "Homes" || res.Policy != "greedy" {
		t.Fatalf("labels: %+v", res)
	}
	if res.Latency.Count() != res.Requests {
		t.Fatalf("latency count %d != %d", res.Latency.Count(), res.Requests)
	}
	if res.MeanLatency() <= 0 {
		t.Fatal("zero mean latency")
	}
	if res.Duration <= 0 {
		t.Fatal("zero duration")
	}
	// Preconditioning + churn must have produced GC activity.
	if res.FTL.BlocksErased == 0 {
		t.Fatalf("no GC during measurement: %+v", res.FTL)
	}
	if res.String() == "" {
		t.Fatal("empty result string")
	}
}

func TestRunSchemesDiffer(t *testing.T) {
	// On the dedup-heavy Mail workload CAGC must erase fewer blocks and
	// migrate fewer pages than Baseline; Inline-Dedupe must have higher
	// mean write latency than Baseline.
	run := func(opts ftl.Options) *Result {
		cfg := smallConfig(opts)
		spec := specFor(t, cfg, trace.Mail, 6000)
		res, err := Run(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(ftl.BaselineOptions())
	cagc := run(ftl.CAGCOptions())
	inline := run(ftl.InlineDedupeOptions())

	t.Logf("base:   %v", base)
	t.Logf("cagc:   %v", cagc)
	t.Logf("inline: %v", inline)

	if cagc.FTL.BlocksErased >= base.FTL.BlocksErased {
		t.Errorf("CAGC erased %d, baseline %d — want fewer", cagc.FTL.BlocksErased, base.FTL.BlocksErased)
	}
	if cagc.FTL.PagesMigrated >= base.FTL.PagesMigrated {
		t.Errorf("CAGC migrated %d, baseline %d — want fewer", cagc.FTL.PagesMigrated, base.FTL.PagesMigrated)
	}
	if inline.WriteLatency.Mean() <= base.WriteLatency.Mean() {
		t.Errorf("inline write mean %.1f <= baseline %.1f — inline should pay hash latency",
			inline.WriteLatency.Mean()/1000, base.WriteLatency.Mean()/1000)
	}
	if cagc.FTL.GCDupDropped == 0 {
		t.Error("CAGC dropped nothing on Mail")
	}
}

func TestRunRefDistSkewsToRefcountOne(t *testing.T) {
	// Figure 6: most invalidations come from refcount-1 pages. Use the
	// inline scheme, which tracks true reference counts.
	cfg := smallConfig(ftl.InlineDedupeOptions())
	spec := specFor(t, cfg, trace.WebVM, 6000)
	res, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	s := res.RefShares()
	t.Logf("ref shares: %v", s)
	if s[0] < 0.5 {
		t.Errorf("refcount-1 share = %.2f, want majority", s[0])
	}
	if s[0]+s[1]+s[2]+s[3] < 0.999 {
		t.Errorf("shares do not sum to 1: %v", s)
	}
}

func TestRunSpecMismatchRejected(t *testing.T) {
	cfg := smallConfig(ftl.BaselineOptions())
	spec, err := trace.Preset(trace.Homes, 12345, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, spec); err == nil {
		t.Fatal("mismatched logical pages accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallConfig(ftl.CAGCOptions())
	spec := specFor(t, cfg, trace.Mail, 2000)
	a, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.FTL != b.FTL || a.Duration != b.Duration || a.Latency.Mean() != b.Latency.Mean() {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", a.FTL, b.FTL)
	}
}

// sliceSource replays a fixed request slice.
type sliceSource struct{ reqs []trace.Request }

func (s *sliceSource) Next() (trace.Request, bool) {
	if len(s.reqs) == 0 {
		return trace.Request{}, false
	}
	r := s.reqs[0]
	s.reqs = s.reqs[1:]
	return r, true
}

func TestReplayRequestClipping(t *testing.T) {
	cfg := smallConfig(ftl.BaselineOptions())
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A request straddling the end of the address space is clipped, and
	// one fully outside is a zero-latency no-op.
	last := r.LogicalPages() - 1
	src := &sliceSource{reqs: []trace.Request{
		{At: 0, Op: trace.OpRead, LPN: last, Pages: 4},
		{At: 1, Op: trace.OpTrim, LPN: r.LogicalPages() + 10, Pages: 1},
	}}
	res, err := r.Replay(src, 0, "clip")
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 {
		t.Fatalf("requests = %d", res.Requests)
	}
}

func TestPreconditionFillsDevice(t *testing.T) {
	cfg := smallConfig(ftl.BaselineOptions())
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := trace.Preset(trace.Homes, r.LogicalPages(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := trace.NewPreconditioner(spec)
	if err != nil {
		t.Fatal(err)
	}
	settle, err := r.Precondition(pre)
	if err != nil {
		t.Fatal(err)
	}
	if settle <= 0 {
		t.Fatal("precondition took no time")
	}
	// Every logical page is now mapped: valid pages == logical pages
	// minus dedup sharing; at minimum, many pages are valid.
	_, valid, _ := r.FTL().Device().CountStates()
	if uint64(valid) > r.LogicalPages() {
		t.Fatalf("valid %d > logical %d", valid, r.LogicalPages())
	}
	if valid == 0 {
		t.Fatal("device empty after precondition")
	}
	if err := r.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPreconditionerCoversAddressSpace(t *testing.T) {
	spec, err := trace.Preset(trace.Mail, 1000, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := trace.NewPreconditioner(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 1000)
	for {
		req, ok := pre.Next()
		if !ok {
			break
		}
		if req.Op != trace.OpWrite {
			t.Fatalf("preconditioner emitted %v", req.Op)
		}
		for i := 0; i < req.Pages; i++ {
			lpn := req.LPN + uint64(i)
			if lpn >= 1000 {
				t.Fatalf("preconditioner overran: %d", lpn)
			}
			if seen[lpn] {
				t.Fatalf("lpn %d written twice", lpn)
			}
			seen[lpn] = true
		}
	}
	for lpn, s := range seen {
		if !s {
			t.Fatalf("lpn %d never written", lpn)
		}
	}
}

func TestPreconditionerRejectsBadSpec(t *testing.T) {
	var spec trace.Spec
	if _, err := trace.NewPreconditioner(spec); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestResultRefSharesEmpty(t *testing.T) {
	var r Result
	if r.RefShares() != [4]float64{} {
		t.Fatal("empty RefShares not zero")
	}
}

func TestConfigDefaults(t *testing.T) {
	r, err := NewRunner(Config{Options: ftl.BaselineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if r.LogicalPages() == 0 {
		t.Fatal("defaulted runner has no address space")
	}
}

func TestReplayOffsetShiftsArrivals(t *testing.T) {
	cfg := smallConfig(ftl.BaselineOptions())
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &sliceSource{reqs: []trace.Request{
		{At: 0, Op: trace.OpRead, LPN: 0, Pages: 1},
	}}
	offset := 5 * event.Millisecond
	res, err := r.Replay(src, offset, "x")
	if err != nil {
		t.Fatal(err)
	}
	// Unmapped read: ctrl latency only; duration reflects shifted times.
	if res.Latency.Max() > event.Millisecond {
		t.Fatalf("latency contaminated by offset: %v", res.Latency.Max())
	}
}

// TestReplayAllocationIndependentOfLength pins bounded memory in run
// length: a replay keeps nothing per request or per window of simulated
// time, so ten times the requests (and ten times the simulated span)
// allocate no more bytes.
func TestReplayAllocationIndependentOfLength(t *testing.T) {
	ring := make([]trace.Request, 64)
	for i := range ring {
		ring[i] = trace.Request{Op: trace.OpRead, LPN: uint64(i * 7), Pages: 1}
		if i%4 != 0 {
			ring[i].Op = trace.OpWrite
			ring[i].FPs = []dedup.Fingerprint{dedup.OfUint64(uint64(i % 24))}
		}
	}
	for _, opts := range []ftl.Options{ftl.BaselineOptions(), ftl.InlineDedupeOptions(), ftl.CAGCOptions()} {
		allocated := func(n int) uint64 {
			r, err := NewRunner(smallConfig(opts))
			if err != nil {
				t.Fatal(err)
			}
			src := &ringSource{ring: ring, gap: event.Millisecond, left: n}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := r.Replay(src, 0, "ring")
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != uint64(n) {
				t.Fatalf("%s: replayed %d of %d requests", opts.SchemeName(), res.Requests, n)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		short, long := allocated(4000), allocated(40000)
		t.Logf("%s: %d B for 4 000 requests, %d B for 40 000", opts.SchemeName(), short, long)
		// Slack for the runtime's own bookkeeping; a per-10 ms window
		// record alone would be ~200 KB more over the long run.
		if long > short+16<<10 {
			t.Errorf("%s: 40 000 requests allocated %d B, 4 000 allocated %d B", opts.SchemeName(), long, short)
		}
	}
}
