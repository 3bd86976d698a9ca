package cagc

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"cagc/internal/obs"
	"cagc/internal/trace"
)

func testScenarioParams() ScenarioParams {
	return ScenarioParams{
		Tenants: []TenantSpec{
			{Workload: Homes},
			{Workload: WebVM, Rate: 2},
			{Workload: Mail},
		},
		DiurnalPeriod: 5 * Millisecond,
		DiurnalAmp:    0.6,
		SLOUs:         300,
	}
}

// The acceptance scenario: Homes+Web-vm+Mail under a diurnal envelope,
// deterministic to the byte, with per-tenant latency and SLO accounting
// in the result document.
func TestRunScenarioDeterministicWithTenantAccounting(t *testing.T) {
	p := testParams()
	p.Requests = 3000
	run := func() []byte {
		res, err := RunScenario(CAGC, "greedy", p, testScenarioParams())
		if err != nil {
			t.Fatal(err)
		}
		return summaryJSON(t, res)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("scenario reruns diverged:\n%s\nvs\n%s", a, b)
	}

	res, err := RunScenario(CAGC, "greedy", p, testScenarioParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "scenario(Homes+Web-vm+Mail)" {
		t.Fatalf("workload label %q", res.Workload)
	}
	if len(res.Tenants) != 3 {
		t.Fatalf("%d tenant results", len(res.Tenants))
	}
	var attributed uint64
	for i, tr := range res.Tenants {
		if tr.Requests == 0 {
			t.Errorf("tenant %s received no requests", tr.Name)
		}
		if tr.Latency.Count() != tr.Requests {
			t.Errorf("tenant %s: histogram count %d != requests %d",
				tr.Name, tr.Latency.Count(), tr.Requests)
		}
		if tr.SLO != 300*Microsecond {
			t.Errorf("tenant %s: SLO = %v", tr.Name, tr.SLO)
		}
		if tr.Violations > tr.Requests {
			t.Errorf("tenant %s: %d violations of %d requests", tr.Name, tr.Violations, tr.Requests)
		}
		if i > 0 && tr.Base <= res.Tenants[i-1].Base {
			t.Errorf("tenant namespaces not ascending: %d then %d", res.Tenants[i-1].Base, tr.Base)
		}
		attributed += tr.Requests
	}
	// Every replayed request lands in some tenant's namespace.
	if attributed != res.Requests {
		t.Fatalf("attributed %d of %d requests", attributed, res.Requests)
	}

	// The JSON document carries the tenants with their SLO figures.
	doc := string(a)
	for _, want := range []string{`"tenants"`, `"Homes"`, `"Web-vm"`, `"Mail"`, `"slo_us": 300`, `"slo_violations"`} {
		if !strings.Contains(doc, want) {
			t.Errorf("summary JSON missing %s", want)
		}
	}
}

// A single-run summary must not grow a tenants block.
func TestSummaryOmitsTenantsForPlainRuns(t *testing.T) {
	res, err := Run(Mail, CAGC, "greedy", testParams())
	if err != nil {
		t.Fatal(err)
	}
	if doc := string(summaryJSON(t, res)); strings.Contains(doc, `"tenants"`) {
		t.Fatalf("plain run summary grew a tenants block:\n%s", doc)
	}
}

// File-backed tenants stream through the same decode-ahead path and
// keep the per-tenant attribution.
func TestRunScenarioFileTenant(t *testing.T) {
	p := testParams()
	p.Requests = 1200
	path := writeTestTrace(t, Mail, p, "mail.ctr")
	sp := ScenarioParams{
		Tenants: []TenantSpec{
			{Name: "filed", Path: path},
			{Workload: Homes},
		},
		SLOUs: 500,
	}
	res, err := RunScenario(CAGC, "greedy", p, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 || res.Tenants[0].Name != "filed" {
		t.Fatalf("tenants: %+v", res.Tenants)
	}
	if res.Tenants[0].Requests == 0 {
		t.Fatal("file tenant received no requests")
	}
	if res.Workload != "scenario(filed+Homes)" {
		t.Fatalf("label %q", res.Workload)
	}
}

// A scenario runs one decode-ahead ring, however many file tenants it
// has: its ingest.chunk spans carry every request exactly once.
func TestRunScenarioFileTenantsShareOneRing(t *testing.T) {
	p := testParams()
	logical, err := LogicalPagesFor(p)
	if err != nil {
		t.Fatal(err)
	}
	var sp ScenarioParams
	for i, name := range []string{"a", "b"} {
		spec, err := trace.Preset(Mail, logical/2, 3000, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := NewTraceGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".ctr")
		if _, err := WriteTraceFile(path, gen); err != nil {
			t.Fatal(err)
		}
		sp.Tenants = append(sp.Tenants, TenantSpec{Name: name, Path: path})
	}
	p.Trace = NewTraceRecorder()
	res, err := RunScenario(CAGC, "greedy", p, sp)
	if err != nil {
		t.Fatal(err)
	}
	var carried uint64
	for _, ev := range p.Trace.Events() {
		if ev.Kind == obs.KIngestChunk {
			carried += ev.Arg
		}
	}
	if res.Requests != 6000 || carried != res.Requests {
		t.Fatalf("ingest.chunk spans carry %d requests, the document counts %d (want 6000)", carried, res.Requests)
	}
}

// Note: the file tenant's trace addresses the full device's logical
// space but the tenant namespace is a slice of it; requests beyond the
// slice clip into neighbouring namespaces only through the offset, so
// attribution totals can undercount for oversized file traces. The
// validation errors below are the hard contract.
func TestRunScenarioValidation(t *testing.T) {
	p := testParams()
	if _, err := RunScenario(CAGC, "greedy", p, ScenarioParams{}); err == nil {
		t.Fatal("empty scenario accepted")
	}
	sp := testScenarioParams()
	for _, amp := range []float64{1.0, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		sp.DiurnalAmp = amp
		if _, err := RunScenario(CAGC, "greedy", p, sp); err == nil {
			t.Fatalf("amplitude %g accepted", amp)
		}
	}
	// Each of these used to run and count nothing, or run without the
	// envelope it asked for.
	for i, bad := range []func(*ScenarioParams){
		func(sp *ScenarioParams) { sp.SLOUs = math.NaN() },
		func(sp *ScenarioParams) { sp.SLOUs = -5 },
		func(sp *ScenarioParams) { sp.SLOUs = math.Inf(1) },
		func(sp *ScenarioParams) { sp.Tenants[1].SLOUs = math.NaN() },
		func(sp *ScenarioParams) { sp.Tenants[1].SLOUs = -1 },
		func(sp *ScenarioParams) { sp.DiurnalPeriod = -5 * Millisecond },
	} {
		sp := testScenarioParams()
		bad(&sp)
		if _, err := RunScenario(CAGC, "greedy", p, sp); err == nil {
			t.Errorf("case %d: %+v accepted", i, sp)
		}
	}
	sp = testScenarioParams()
	sp.Tenants[1].Workload = "Nope"
	if _, err := RunScenario(CAGC, "greedy", p, sp); err == nil {
		t.Fatal("unknown tenant workload accepted")
	}
	sp = testScenarioParams()
	sp.Tenants[0].Path = "/does/not/exist"
	if _, err := RunScenario(CAGC, "greedy", p, sp); err == nil {
		t.Fatal("missing tenant trace accepted")
	}
	if _, err := RunScenario(CAGC, "nope", p, testScenarioParams()); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// Distinct per-tenant seeds: two tenants on the same workload must not
// replay identical streams.
func TestRunScenarioDistinctTenantSeeds(t *testing.T) {
	p := testParams()
	p.Requests = 1000
	sp := ScenarioParams{Tenants: []TenantSpec{
		{Name: "a", Workload: Mail},
		{Name: "b", Workload: Mail},
	}}
	res, err := RunScenario(CAGC, "greedy", p, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("tenants: %+v", res.Tenants)
	}
	a, b := res.Tenants[0], res.Tenants[1]
	if a.Requests == b.Requests && a.Latency.Mean() == b.Latency.Mean() && a.Violations == b.Violations {
		t.Fatalf("same-workload tenants look identical: %+v vs %+v", a, b)
	}
}

// A NaN rate used to fall through the "Rate > 0" test and replay at
// rate 1; a rate that is not finite now fails the scenario by name.
func TestRunScenarioRejectsNonFiniteRates(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sp := testScenarioParams()
		sp.Tenants[2].Rate = rate
		_, err := RunScenario(CAGC, "greedy", testParams(), sp)
		if err == nil || !strings.Contains(err.Error(), "Mail rate") {
			t.Errorf("rate %v: %v, want an error naming the tenant's rate", rate, err)
		}
	}
}
