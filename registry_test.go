package cagc

import (
	"strings"
	"testing"
)

func TestExperimentIDsComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{"ablations", "array", "fig10", "fig11", "fig12", "fig13",
		"fig2", "fig6", "fig8", "fig9", "tableI", "tableII", "tenants", "throughput", "verify"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	var sb strings.Builder
	if err := RunExperiment("fig99", testParams(), &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Ids match case-insensitively, as workload and scheme names do.
	for _, id := range []string{"tablei", "TableII"} {
		if err := RunExperiment(id, testParams(), &sb); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

// Every registered experiment must run to completion and produce output
// at a small scale, whatever the case of its id.
func TestRunEveryExperiment(t *testing.T) {
	p := testParams()
	p.Requests = 1500
	for _, id := range append(ExperimentIDs(), "tablei", "TableII") {
		id := id
		t.Run(id, func(t *testing.T) {
			var sb strings.Builder
			if err := RunExperiment(id, p, &sb); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if sb.Len() == 0 {
				t.Fatalf("%s produced no output", id)
			}
		})
	}
}

// A traced evaluation traces what it can: the array experiment, whose
// layer is untraced, runs untraced instead of failing.
func TestArrayExperimentUnderTrace(t *testing.T) {
	p := testParams()
	p.Requests = 1500
	p.Trace = NewTraceRecorder()
	var sb strings.Builder
	if err := RunExperiment("array", p, &sb); err != nil {
		t.Fatal(err)
	}
	p.Trace = nil
	var plain strings.Builder
	if err := RunExperiment("array", p, &plain); err != nil {
		t.Fatal(err)
	}
	if sb.String() != plain.String() {
		t.Fatalf("traced array report differs:\n%s\nvs\n%s", sb.String(), plain.String())
	}
}

func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite")
	}
	p := testParams()
	p.Requests = 1500
	var sb strings.Builder
	if err := RunAllExperiments(p, &sb); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{"Table I", "Table II", "Figure 2", "Figure 6",
		"Figure 8", "Figure 9", "Figure 10", "Figure 11", "Figure 12", "Figure 13",
		"throughput", "RAID-1", "Ablations", "checks passed"} {
		if !strings.Contains(sb.String(), marker) {
			t.Errorf("combined output missing %q", marker)
		}
	}
}

func TestMixedTenants(t *testing.T) {
	p := testParams()
	p.Requests = 3000
	base, err := mixedTenants(p, Baseline)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := mixedTenants(p, CAGC)
	if err != nil {
		t.Fatal(err)
	}
	if base.Requests != cg.Requests || base.Requests == 0 {
		t.Fatalf("request counts: %d vs %d", base.Requests, cg.Requests)
	}
	// Cross-tenant content sharing still lets CAGC migrate less.
	if cg.FTL.PagesMigrated >= base.FTL.PagesMigrated {
		t.Errorf("CAGC migrated %d >= baseline %d under consolidation",
			cg.FTL.PagesMigrated, base.FTL.PagesMigrated)
	}
}
