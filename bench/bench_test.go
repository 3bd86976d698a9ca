package main

import (
	"go/parser"
	"go/token"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke is the -smoke pass: tiny sizes, two iterations, every
// workload traced once. It checks the benchmark against BENCHMARK.json
// (every name emitted, finite, well-formed), that simulated results
// repeat exactly, and that no op fails.
func TestSmoke(t *testing.T) {
	e, err := newEnv(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(e.root)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	e.verify()

	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(workload, kind string, defs []metricDef, got map[string]metric) {
		t.Helper()
		if len(got) != len(defs) {
			t.Errorf("%s: %d %s metrics emitted, BENCHMARK.json lists %d", workload, len(got), kind, len(defs))
		}
		for _, d := range defs {
			m, ok := got[d.Name]
			switch {
			case !nameRE.MatchString(d.Name):
				t.Errorf("%s: metric name %q is malformed", workload, d.Name)
			case !ok:
				t.Errorf("%s: %s metric %s not emitted", workload, kind, d.Name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v", workload, d.Name, m.Value)
			case m.Unit != d.Unit:
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, d.Name, m.Unit, d.Unit)
			}
		}
	}
	const seed = 5
	for _, name := range workloadNames {
		first, err := runWorkload(e, name, seed, 0, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, "end-to-end", bf.EndToEnd, first.e2e)
		check(name, "per-layer", bf.PerLayer, first.layers)
		for _, d := range bf.EndToEnd {
			if first.e2e[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
			}
		}
		// The service's layers are measured where they run and nowhere else.
		for _, n := range []string{"serve.job_p50_ms", "pool.dispatch_ns_per_item", "fleet.devices_per_s"} {
			if measured := first.layers[n].Value != 0; measured != (name == "serve_rounds") {
				t.Errorf("%s: %s = %v", name, n, first.layers[n].Value)
			}
		}
		again, err := runWorkload(e, name, seed, 0, false)
		if err != nil {
			t.Fatalf("%s (repeat): %v", name, err)
		}
		for _, d := range bf.EndToEnd {
			if strings.HasPrefix(d.Name, "sim_") && first.e2e[d.Name] != again.e2e[d.Name] {
				t.Errorf("%s: %s did not repeat: %v then %v", name, d.Name, first.e2e[d.Name].Value, again.e2e[d.Name].Value)
			}
		}
	}
	if e.failed != 0 || e.attempted == 0 {
		t.Errorf("%d of %d ops failed", e.failed, e.attempted)
	}
}

// TestCheckBaseline: at the recorded seed a simulated metric that
// differs from bench/baseline.json in the last bit is a failed op;
// host-time metrics and other seeds are not compared.
func TestCheckBaseline(t *testing.T) {
	var b baseline
	b.Seed = 7
	b.EndToEnd = map[string]map[string]quartiles{"mail_cagc": {
		"sim_wa":             {Median: 1.0625},
		"cal_requests_per_s": {Median: 1e6},
	}}
	for _, c := range []struct {
		seed       int64
		wa         float64
		wantFailed int
	}{
		{7, 1.0625, 0},
		{7, math.Nextafter(1.0625, 2), 1},
		{8, 2, 0},
	} {
		e := &env{base: &b}
		e.checkBaseline("mail_cagc", c.seed, map[string]metric{"sim_wa": {c.wa, "ratio"}, "cal_requests_per_s": {5e5, "1/s"}})
		if e.failed != c.wantFailed {
			t.Errorf("seed %d, sim_wa %v: %d failed ops, want %d", c.seed, c.wa, e.failed, c.wantFailed)
		}
	}
}

// TestCalibrationKernelIsIndependent: the machine-speed probe must not
// be movable by any change to the repository's own packages.
func TestCalibrationKernelIsIndependent(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), "calib", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if path == "cagc" || strings.HasPrefix(path, "cagc/") {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
	if files == 0 {
		t.Fatal("no files parsed in bench/calib")
	}
}
