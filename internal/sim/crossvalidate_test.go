package sim

import (
	"testing"

	"cagc/internal/ftl"
	"cagc/internal/trace"
)

// The Figure-6 distribution has two independent implementations: pure
// trace analysis (trace.AnalyzeRefcounts, the paper's methodology) and
// the Inline-Dedupe FTL's live reference counting inside the full
// simulator. Fed the same request stream they must agree exactly —
// GC relocations must never perturb reference-count bookkeeping.
func TestRefcountAnalysisMatchesInlineFTL(t *testing.T) {
	// A bare runner, never preconditioned: the analysis sees only the
	// trace.
	r, err := NewRunner(smallConfig(ftl.InlineDedupeOptions()))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := trace.Preset(trace.Mail, r.LogicalPages(), 8000, 77)
	if err != nil {
		t.Fatal(err)
	}
	newGen := func() trace.Source {
		gen, err := trace.NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}
	res, err := r.Replay(newGen(), 0, "Mail")
	if err != nil {
		t.Fatal(err)
	}
	analysis := trace.AnalyzeRefcounts(newGen())

	if res.RefDist != analysis.Counts() {
		t.Fatalf("distributions diverge:\n simulator %v\n analysis  %v",
			res.RefDist, analysis.Counts())
	}
	if res.RefDist[0] == 0 {
		t.Fatal("empty distribution proves nothing")
	}
}
