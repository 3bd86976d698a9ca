package cagc

import (
	"strings"
	"testing"
)

// testParams keeps harness tests fast: a 16 MiB device, 5000 requests.
func testParams() Params {
	return Params{DeviceBytes: 16 << 20, Requests: 5000, Seed: 1}
}

func TestRunPublicAPI(t *testing.T) {
	res, err := Run(Mail, CAGC, "greedy", testParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "CAGC" || res.Workload != "Mail" {
		t.Fatalf("labels: %s/%s", res.Scheme, res.Workload)
	}
	if res.Requests != 5000 {
		t.Fatalf("requests = %d", res.Requests)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if _, err := Run(Mail, CAGC, "lifo", testParams()); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Run("Nope", CAGC, "greedy", testParams()); err == nil {
		t.Error("unknown workload accepted")
	}
	bad := testParams()
	bad.Utilization = 0.99
	if _, err := Run(Mail, CAGC, "greedy", bad); err == nil {
		t.Error("infeasible utilization accepted")
	}
}

// The canonical names parse to the schemes they name, in order.
func TestParseSchemePublic(t *testing.T) {
	for i, name := range SchemeNames() {
		if s, err := ParseScheme(name); err != nil || s != Schemes[i] {
			t.Errorf("SchemeNames()[%d] = %q parses to %v, %v", i, name, s, err)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	rows, err := Figure2(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's motivation: inline dedup degrades ULL-SSD
		// response time on every workload.
		if r.Normalized <= 1.0 {
			t.Errorf("%s: inline normalized %.2f, want > 1", r.Workload, r.Normalized)
		}
	}
	var sb strings.Builder
	FprintFigure2(&sb, rows)
	if !strings.Contains(sb.String(), "Figure 2") {
		t.Error("formatting broken")
	}
}

func TestFigure6Shape(t *testing.T) {
	rows, err := Figure6(testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper: >80% of invalid pages come from refcount-1 pages.
		if r.Shares[0] < 0.8 {
			t.Errorf("%s: refcount-1 share %.2f, want > 0.8", r.Workload, r.Shares[0])
		}
		if r.Total == 0 {
			t.Errorf("%s: no invalidations sampled", r.Workload)
		}
	}
	var sb strings.Builder
	FprintFigure6(&sb, rows)
	if !strings.Contains(sb.String(), "Figure 6") {
		t.Error("formatting broken")
	}
}

func TestFigure8Exact(t *testing.T) {
	base, cg, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if base.MigrationWrites != 12 || cg.MigrationWrites != 7 || cg.GCDupDropped != 5 {
		t.Fatalf("worked example off: base=%+v cagc=%+v", base, cg)
	}
	var sb strings.Builder
	FprintFigure8(&sb, base, cg)
	if !strings.Contains(sb.String(), "Figure 8") {
		t.Error("formatting broken")
	}
}

func TestFigures9Through11Shape(t *testing.T) {
	p := testParams()
	rows, err := Figure9And10(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ErasedReduction <= 0 {
			t.Errorf("%s: erase reduction %.2f, want > 0", r.Workload, r.ErasedReduction)
		}
		if r.MigratedReduction <= 0 {
			t.Errorf("%s: migration reduction %.2f, want > 0", r.Workload, r.MigratedReduction)
		}
	}
	// Mail (highest dedup ratio) must benefit most, Homes least —
	// the ordering of both paper figures.
	byW := map[Workload]CompareRow{}
	for _, r := range rows {
		byW[r.Workload] = r
	}
	if !(byW[Mail].MigratedReduction > byW[WebVM].MigratedReduction &&
		byW[WebVM].MigratedReduction > byW[Homes].MigratedReduction) {
		t.Errorf("migration reductions not ordered by dedup ratio: %v %v %v",
			byW[Homes].MigratedReduction, byW[WebVM].MigratedReduction, byW[Mail].MigratedReduction)
	}
	if byW[Mail].ErasedReduction <= byW[Homes].ErasedReduction {
		t.Errorf("Mail erase reduction %.2f <= Homes %.2f",
			byW[Mail].ErasedReduction, byW[Homes].ErasedReduction)
	}

	f11, err := Figure11(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f11 {
		if r.InlineNorm <= 1 {
			t.Errorf("%s: inline norm %.2f, want > 1 (inline must lose)", r.Workload, r.InlineNorm)
		}
		if r.CAGCNorm >= 1 {
			t.Errorf("%s: CAGC norm %.2f, want < 1 (CAGC must win)", r.Workload, r.CAGCNorm)
		}
	}
	var sb strings.Builder
	FprintFigure9And10(&sb, rows)
	FprintFigure11(&sb, f11)
	if !strings.Contains(sb.String(), "Figure 10") || !strings.Contains(sb.String(), "Figure 11") {
		t.Error("formatting broken")
	}
}

func TestFigure12Shape(t *testing.T) {
	series, err := Figure12(testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.Baseline) == 0 || len(s.CAGC) == 0 {
			t.Fatalf("%s: empty CDF", s.Workload)
		}
		// CAGC's CDF must dominate (shift left): compare at the 90th
		// percentile probe.
		b := quantileOf(s.Baseline, 0.90)
		c := quantileOf(s.CAGC, 0.90)
		if b == "-" || c == "-" {
			t.Fatalf("%s: missing quantiles", s.Workload)
		}
	}
	var sb strings.Builder
	FprintFigure12(&sb, series)
	if !strings.Contains(sb.String(), "Figure 12") {
		t.Error("formatting broken")
	}
}

func TestFigure13Shape(t *testing.T) {
	cells, err := Figure13(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("cells = %d, want 3 policies x 3 workloads", len(cells))
	}
	for _, c := range cells {
		// Under every policy CAGC reduces erases and migrations
		// (Figure 13's claim: CAGC composes with any victim policy).
		if c.ErasedReduction <= 0 {
			t.Errorf("%s/%s: erase reduction %.2f", c.Workload, c.Policy, c.ErasedReduction)
		}
		if c.MigratedReduction <= 0 {
			t.Errorf("%s/%s: migration reduction %.2f", c.Workload, c.Policy, c.MigratedReduction)
		}
	}
	var sb strings.Builder
	FprintFigure13(&sb, cells)
	if !strings.Contains(sb.String(), "Figure 13") {
		t.Error("formatting broken")
	}
}

func TestTableIIVerification(t *testing.T) {
	rows, err := TableII(Params{Requests: 30000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if d := r.GotWriteRatio - r.WantWriteRatio; d > 0.04 || d < -0.04 {
			t.Errorf("%s write ratio %.3f vs %.3f", r.Workload, r.GotWriteRatio, r.WantWriteRatio)
		}
		if d := r.GotDedupRatio - r.WantDedupRatio; d > 0.09 || d < -0.09 {
			t.Errorf("%s dedup ratio %.3f vs %.3f", r.Workload, r.GotDedupRatio, r.WantDedupRatio)
		}
	}
	var sb strings.Builder
	FprintTableII(&sb, rows)
	if !strings.Contains(sb.String(), "Table II") {
		t.Error("formatting broken")
	}
}

func TestTableIString(t *testing.T) {
	s := TableIString(Params{})
	for _, want := range []string{"4096", "256KB", "12.000us", "1.500ms", "14.000us"} {
		if !strings.Contains(s, want) {
			t.Errorf("TableIString missing %q in:\n%s", want, s)
		}
	}
}

func TestFprintResult(t *testing.T) {
	res, err := Run(Homes, Baseline, "greedy", testParams())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	FprintResult(&sb, res)
	for _, want := range []string{"scheme", "latency", "gc", "device"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestAblateThreshold(t *testing.T) {
	pts, err := AblateThreshold(Mail, []int{1, 3}, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Threshold != 1 || pts[1].Threshold != 3 {
		t.Fatalf("points: %+v", pts)
	}
	for _, pt := range pts {
		if pt.Result.FTL.GCDupDropped == 0 {
			t.Errorf("threshold %d: no dedup", pt.Threshold)
		}
	}
}

func TestAblatePlacement(t *testing.T) {
	a, err := AblatePlacement(Mail, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.Full.FTL.Promotions == 0 {
		t.Error("full CAGC never promoted")
	}
	if a.DedupOnly.FTL.Promotions != 0 {
		t.Error("placement-free variant promoted")
	}
}

func TestAblateOverlap(t *testing.T) {
	a, err := AblateOverlap(Mail, testParams())
	if err != nil {
		t.Fatal(err)
	}
	// The serial variant must not be faster under GC.
	if a.GCPeriodSlowdown < 0.95 {
		t.Errorf("serial GC faster than overlapped: %.2f", a.GCPeriodSlowdown)
	}
}

func TestAblateUtilization(t *testing.T) {
	pts, err := AblateUtilization(WebVM, []float64{0.45, 0.65}, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// More space pressure means more baseline erases.
	if pts[1].Baseline.FTL.BlocksErased <= pts[0].Baseline.FTL.BlocksErased {
		t.Errorf("erases did not grow with utilization: %d vs %d",
			pts[0].Baseline.FTL.BlocksErased, pts[1].Baseline.FTL.BlocksErased)
	}
}

func TestSummarizeAndJSON(t *testing.T) {
	res, err := Run(Mail, CAGC, "greedy", testParams())
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(res)
	if s.Scheme != "CAGC" || s.Requests != res.Requests {
		t.Fatalf("summary labels: %+v", s)
	}
	if s.Latency.MeanUs <= 0 || s.Latency.P99Us < s.Latency.P50Us {
		t.Fatalf("latency summary inconsistent: %+v", s.Latency)
	}
	if s.WriteAmplification != res.FTL.WriteAmplification() {
		t.Fatal("WA mismatch")
	}
	var sb strings.Builder
	if err := WriteJSON(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"blocks_erased"`) {
		t.Fatal("JSON missing fields")
	}
}

func TestFigure6AnalysisShape(t *testing.T) {
	rows, err := Figure6Analysis(testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Shares[0] < 0.8 {
			t.Errorf("%s: analysis refcount-1 share %.2f", r.Workload, r.Shares[0])
		}
		if r.Total == 0 {
			t.Errorf("%s: empty analysis", r.Workload)
		}
	}
}
