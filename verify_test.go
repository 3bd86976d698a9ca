package cagc

import (
	"io"
	"strings"
	"testing"
)

func TestVerifyAllChecksPass(t *testing.T) {
	p := testParams()
	checks, err := verify(p, runsOf(t, p, "verify"))
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 14 {
		t.Fatalf("only %d checks produced", len(checks))
	}
	var sb strings.Builder
	failed := fprintChecks(&sb, checks)
	if failed != 0 {
		t.Fatalf("%d reproduction checks failed:\n%s", failed, sb.String())
	}
	if !strings.Contains(sb.String(), "checks passed") {
		t.Fatal("report footer missing")
	}
	// Every check carries measured detail.
	for _, c := range checks {
		if c.Detail == "" || c.Claim == "" || c.ID == "" {
			t.Fatalf("incomplete check: %+v", c)
		}
	}
}

func TestFprintChecksCountsFailures(t *testing.T) {
	var sb strings.Builder
	n := fprintChecks(&sb, []check{
		{ID: "a", Claim: "x", Pass: true, Detail: "d"},
		{ID: "b", Claim: "y", Pass: false, Detail: "d"},
	})
	if n != 1 {
		t.Fatalf("failed = %d, want 1", n)
	}
	if !strings.Contains(sb.String(), "[FAIL]") || !strings.Contains(sb.String(), "1/2") {
		t.Fatalf("report:\n%s", sb.String())
	}
}

func TestVerifyCanonicalScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full canonical-scale audit (~10s)")
	}
	// The exact configuration EXPERIMENTS.md documents.
	checks, err := verify(Params{}, runsOf(t, Params{}, "verify"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("[FAIL] %s: %s (%s)", c.ID, c.Claim, c.Detail)
		}
	}
}

// The checks read every figure's cells from one batch: 21 distinct
// configurations, each simulated once.
func TestVerifySimulatesEachCellOnce(t *testing.T) {
	ResetWarmCache()
	defer ResetWarmCache()
	p := testParams()
	p.Requests = 1500
	if err := RunExperiment("verify", p, io.Discard); err != nil {
		t.Fatal(err)
	}
	if st := WarmCacheStats(); st.Hits+st.Misses != 21 {
		t.Fatalf("verify made %d simulations (%+v), want 21", st.Hits+st.Misses, st)
	}
}
