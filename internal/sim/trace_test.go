package sim

import (
	"reflect"
	"sort"
	"testing"

	"cagc/internal/ftl"
	"cagc/internal/obs"
	"cagc/internal/trace"
)

// tracedRun executes a small run with a recorder installed and returns
// the result plus the recorded events.
func tracedRun(t *testing.T, opts ftl.Options, w trace.WorkloadName, reqs int) (*Result, *obs.Recorder) {
	t.Helper()
	cfg := smallConfig(opts)
	spec := specFor(t, cfg, w, reqs)
	rec := obs.NewRecorder()
	cfg.Tracer = rec
	res, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// TestTracedRunBitIdentical is the overhead contract end to end:
// attaching a recorder must not change a single simulated number.
func TestTracedRunBitIdentical(t *testing.T) {
	cfg := smallConfig(ftl.CAGCOptions())
	spec := specFor(t, cfg, trace.Mail, 3000)
	plain, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	traced, rec := tracedRun(t, ftl.CAGCOptions(), trace.Mail, 3000)
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing changed the simulation result:\nuntraced: %+v\ntraced:   %+v", plain, traced)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured nothing")
	}
}

// A traced generated run long enough to go ahead shows its ring on the
// ingest track: at least one ingest.chunk span. A shorter run stays on
// the replay's goroutine and records none.
func TestTracedGeneratedRunRecordsIngestChunks(t *testing.T) {
	for _, c := range []struct {
		reqs  int
		ahead bool
	}{{trace.AheadMinRequests, true}, {trace.AheadMinRequests - 1, false}} {
		_, rec := tracedRun(t, ftl.CAGCOptions(), trace.Mail, c.reqs)
		chunks := 0
		for _, ev := range rec.Events() {
			if ev.Kind == obs.KIngestChunk {
				if ev.Track != obs.TrackIngest {
					t.Fatalf("ingest.chunk on track %d, want the ingest track", ev.Track)
				}
				chunks++
			}
		}
		if (chunks > 0) != c.ahead {
			t.Fatalf("%d requests: %d ingest.chunk spans, want ahead = %v", c.reqs, chunks, c.ahead)
		}
	}
}

// TestTraceSpansNestWithinParents checks the structural invariant of
// the scope stack: every parented event falls inside its parent span's
// interval, and parents are always span ('X') kinds.
func TestTraceSpansNestWithinParents(t *testing.T) {
	_, rec := tracedRun(t, ftl.CAGCOptions(), trace.Mail, 3000)
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	lo := evs[0].Seq
	for i := range evs {
		ev := &evs[i]
		if ev.Kind.Detached() && ev.Parent != 0 {
			t.Fatalf("detached %s (seq %d) has parent %d", ev.Kind.Name(), ev.Seq, ev.Parent)
		}
		if ev.Parent == 0 {
			continue
		}
		par := &evs[ev.Parent-lo]
		if par.Seq != ev.Parent {
			t.Fatalf("seq numbering not contiguous: event %d claims parent %d, slot holds %d",
				ev.Seq, ev.Parent, par.Seq)
		}
		if par.Kind.Phase() != 'X' {
			t.Errorf("event %s (seq %d) parented to non-span %s",
				ev.Kind.Name(), ev.Seq, par.Kind.Name())
		}
		if ev.Start < par.Start || ev.End > par.End {
			t.Errorf("event %s [%d,%d] (seq %d) escapes parent %s [%d,%d]",
				ev.Kind.Name(), ev.Start, ev.End, ev.Seq,
				par.Kind.Name(), par.Start, par.End)
		}
	}
}

// TestTraceDieSpansNeverOverlap checks that the per-die timelines the
// trace exposes are physically consistent: one die does one thing at a
// time, so its spans may touch but never intersect. The same must hold
// per hash engine.
func TestTraceDieSpansNeverOverlap(t *testing.T) {
	_, rec := tracedRun(t, ftl.CAGCOptions(), trace.Mail, 3000)
	perTrack := map[obs.Track][]obs.Event{}
	for _, ev := range rec.Events() {
		_, die := obs.IsDieTrack(ev.Track)
		_, hash := obs.IsHashTrack(ev.Track)
		if (die || hash) && ev.Kind.Phase() == 'X' {
			perTrack[ev.Track] = append(perTrack[ev.Track], ev)
		}
	}
	if len(perTrack) == 0 {
		t.Fatal("no die or hash spans recorded")
	}
	checked := 0
	for track, spans := range perTrack {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].End < spans[j].End
		})
		for i := 1; i < len(spans); i++ {
			prev, cur := &spans[i-1], &spans[i]
			if cur.Start < prev.End {
				t.Errorf("track %d: %s [%d,%d] overlaps %s [%d,%d]",
					uint32(track), prev.Kind.Name(), prev.Start, prev.End,
					cur.Kind.Name(), cur.Start, cur.End)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no span pairs checked")
	}
}

// TestTraceOverlapRatioByScheme ties the trace to the paper's claim: the
// CAGC migration path fingerprints during erases (nonzero overlap),
// while Inline-Dedupe fingerprints only in the foreground (no GC-path
// hashing at all).
func TestTraceOverlapRatioByScheme(t *testing.T) {
	_, cagcRec := tracedRun(t, ftl.CAGCOptions(), trace.Mail, 3000)
	cagc := obs.Summarize(cagcRec)
	if cagc.GC.Collects == 0 {
		t.Fatal("CAGC run traced no collections")
	}
	if cagc.GC.Fingerprint == 0 {
		t.Fatal("CAGC run traced no GC-path fingerprinting")
	}
	if ratio := cagc.GC.OverlapRatio(); ratio <= 0 {
		t.Errorf("CAGC fingerprint/erase overlap = %v, want > 0", ratio)
	}

	_, inlineRec := tracedRun(t, ftl.InlineDedupeOptions(), trace.Mail, 3000)
	inline := obs.Summarize(inlineRec)
	if inline.GC.Fingerprint != 0 {
		t.Errorf("Inline-Dedupe traced %d ns of GC-path hashing, want none", inline.GC.Fingerprint)
	}
	if ratio := inline.GC.OverlapRatio(); ratio != 0 {
		t.Errorf("Inline-Dedupe overlap ratio = %v, want 0", ratio)
	}
	if inline.HashBusy == 0 {
		t.Error("Inline-Dedupe traced no foreground hashing")
	}
}

// TestTraceSummaryMatchesResult cross-checks the trace-derived request
// tallies against the simulator's own measurement.
func TestTraceSummaryMatchesResult(t *testing.T) {
	res, rec := tracedRun(t, ftl.CAGCOptions(), trace.Mail, 3000)
	s := obs.Summarize(rec)
	// The trace also covers preconditioning writes, so it sees at least
	// the measured requests.
	if s.Requests < res.Requests {
		t.Errorf("trace saw %d requests, result measured %d", s.Requests, res.Requests)
	}
	if s.GC.Collects == 0 || res.FTL.BlocksErased == 0 {
		t.Fatalf("no GC activity: trace %d collects, result %d erases",
			s.GC.Collects, res.FTL.BlocksErased)
	}
	if s.Horizon <= 0 {
		t.Error("trace horizon not positive")
	}
}

// TestSnapshotStripsTracer guards the warm-cache identity rule: a
// snapshot built from a traced config must not retain the tracer (it
// would leak one run's recorder into every later warm run), but a
// traced warm run must install its own tracer on the clone.
func TestSnapshotStripsTracer(t *testing.T) {
	cfg := smallConfig(ftl.CAGCOptions())
	spec := specFor(t, cfg, trace.Mail, 1500)
	rec := obs.NewRecorder()
	cfg.Tracer = rec
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap.cfg.Tracer != nil {
		t.Error("snapshot retained the build-time tracer")
	}
	// The snapshot build itself must not have recorded anything.
	if n := rec.Len(); n != 0 {
		t.Errorf("snapshot build leaked %d events into the recorder", n)
	}
	// A warm run with a fresh recorder traces the replay.
	rec2 := obs.NewRecorder()
	cfg2 := cfg
	cfg2.Tracer = rec2
	if _, err := RunWarmRecycled(snap, cfg2, spec); err != nil {
		t.Fatal(err)
	}
	if rec2.Len() == 0 {
		t.Error("warm run recorded nothing")
	}
	// And an untraced warm run from the same snapshot records nothing new.
	before := rec2.Len()
	cfg3 := cfg
	cfg3.Tracer = nil
	if _, err := RunWarmRecycled(snap, cfg3, spec); err != nil {
		t.Fatal(err)
	}
	if rec2.Len() != before {
		t.Error("untraced warm run leaked events into a previous recorder")
	}
}
