package main

// -selfcheck and -record: the benchmark measuring itself.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"cagc/bench/calib"
)

// worse is by how much of a's value b is worse than a, for a metric
// whose better direction is given (negative when b is better).
func worse(def metricDef, a, b float64) float64 {
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSet makes one untraced run of every workload.
func runSet(e *env, seed int64, seconds float64) (map[string]runOut, error) {
	set := map[string]runOut{}
	for _, name := range workloadNames {
		out, err := runWorkload(e, name, seed, seconds, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		set[name] = out
	}
	return set, nil
}

// selfCheck shows the bounds sit above the noise and below a change
// worth catching: two sets of the same build must agree within every
// bound (sim_* exactly: same seed, same build), and one workload run
// again with a sleep inside the timed region, sized to read a quarter
// past the throughput bound, must be flagged as a regression.
func selfCheck(e *env, bf benchmarkFile, seed int64, seconds float64) error {
	a, err := runSet(e, seed, seconds)
	if err != nil {
		return err
	}
	b, err := runSet(e, seed, seconds)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	for _, name := range workloadNames {
		for _, def := range bf.EndToEnd {
			x, y := a[name].e2e[def.Name].Value, b[name].e2e[def.Name].Value
			diff := max(worse(def, x, y), worse(def, y, x)) // either order: there is no "parent" here
			verdict := "ok"
			if strings.HasPrefix(def.Name, "sim_") {
				if x != y {
					verdict = "NOT EXACT"
					bad++
				}
			} else if diff > def.Bound {
				verdict = "OVER BOUND"
				bad++
			}
			fmt.Printf("%-18s %-20s %14.6g %14.6g %8.2f%% %6.0f%% %s\n", name, def.Name, x, y, diff*100, def.Bound*100, verdict)
		}
		raw := func(o runOut) float64 { return iqrShare(pick(o.samples, sample.rawSeconds)) }
		cal := func(o runOut) float64 { return iqrShare(pick(o.samples, sample.calSeconds)) }
		fmt.Printf("%-18s within-run spread (IQR/median): raw %.3f %.3f, calibrated %.3f %.3f\n",
			name, raw(a[name]), raw(b[name]), cal(a[name]), cal(b[name]))
	}

	const victim, gated = "webvm_baseline", "cal_requests_per_s"
	for _, def := range bf.EndToEnd {
		if def.Name != gated {
			continue
		}
		// Sleeping a share s of every iteration makes throughput read
		// s/(1+s) worse; aim a quarter past the bound.
		target := 1.25 * def.Bound
		e.slow = target / (1 - target)
		slow, err := runWorkload(e, victim, seed, seconds, false)
		if err != nil {
			return err
		}
		by := worse(def, a[victim].e2e[gated].Value, slow.e2e[gated].Value)
		verdict := "flagged"
		if by <= def.Bound {
			verdict = "MISSED"
			bad++
		}
		fmt.Printf("%-18s %-20s injected %.0f%% sleep reads %.2f%% worse (bound %.0f%%): %s\n",
			victim, gated, e.slow*100, by*100, def.Bound*100, verdict)
		e.slow = 0
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparisons outside their bound", bad)
	}
	return nil
}

// quartiles is one metric's spread over the recorded sets.
type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// baseline is bench/baseline.json: the numbers of the commit that
// defined the benchmark, with the machine they were measured on.
// BENCHMARK.json's schema is closed, so they live here.
type baseline struct {
	Machine struct {
		CPU        string  `json:"cpu"`
		NProc      int     `json:"nproc"`
		Go         string  `json:"go"`
		CalibRefMs float64 `json:"calib_ref_ms"`
		CalibMs    float64 `json:"calib_ms_measured"`
	} `json:"machine"`
	Seed         int64                           `json:"seed"`
	ReservedSeed int64                           `json:"reserved_seed"`
	Sets         int                             `json:"sets"`
	RunSeconds   float64                         `json:"run_seconds"`
	EndToEnd     map[string]map[string]quartiles `json:"end_to_end"`
}

func baselinePath(root string) string { return filepath.Join(root, "bench", "baseline.json") }

func readBaseline(root string) (*baseline, error) {
	raw, err := os.ReadFile(baselinePath(root))
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", baselinePath(root), err)
	}
	return &b, nil
}

// checkBaseline is the exact gate on the simulated results: at the
// recorded seed every sim_* metric must equal the committed baseline to
// the last bit. Any difference is a model change, which the issue making
// it declares by re-recording the baseline; it counts as one failed op.
// Other seeds have no recorded values and are gated by BENCHMARK.json's
// bounds alone.
func (e *env) checkBaseline(workload string, seed int64, e2e map[string]metric) {
	if e.base == nil || seed != e.base.Seed {
		return
	}
	e.attempted++
	recorded := e.base.EndToEnd[workload]
	for name, m := range e2e {
		if !strings.HasPrefix(name, "sim_") {
			continue
		}
		if q, ok := recorded[name]; !ok || q.Median != m.Value {
			e.fail("%s: %s = %v at the recorded seed %d, bench/baseline.json says %v: a model change",
				workload, name, m.Value, seed, q.Median)
			return
		}
	}
}

// refTolerance is how far the calibration kernel's median may sit from
// calib.RefMs while a baseline is recorded. The sandbox's own speed moves
// by more than this between a quiet and a busy hour, so a tighter value
// would only reject recordings at random.
const refTolerance = 0.10

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// recordBaseline runs `sets` untraced sets and rewrites
// bench/baseline.json. The reserved seed is never measured here: it is
// kept for checking later claims on inputs no one tuned against.
func recordBaseline(e *env, bf benchmarkFile, seed int64, seconds float64, sets int) error {
	if sets < 5 {
		return fmt.Errorf("-record %d: at least 5 sets", sets)
	}
	values := map[string]map[string][]float64{}
	var calibs []float64
	for i := 0; i < sets; i++ {
		set, err := runSet(e, seed, seconds)
		if err != nil {
			return err
		}
		for name, out := range set {
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range out.e2e {
				values[name][m] = append(values[name][m], v.Value)
			}
			calibs = append(calibs, pick(out.samples, func(s sample) float64 { return s.calibMs })...)
		}
		fmt.Fprintf(os.Stderr, "bench: recorded set %d of %d\n", i+1, sets)
	}
	var b baseline
	b.Machine.CPU, b.Machine.NProc, b.Machine.Go = cpuModel(), runtime.NumCPU(), runtime.Version()
	if out, err := exec.Command("go", "version").Output(); err == nil {
		b.Machine.Go = strings.TrimSpace(string(out))
	}
	b.Machine.CalibRefMs, b.Machine.CalibMs = calib.RefMs, median(calibs)
	// On the machine the baseline is recorded on, calibrated time is meant
	// to equal raw time.
	if r := b.Machine.CalibMs / calib.RefMs; r < 1-refTolerance || r > 1+refTolerance {
		return fmt.Errorf("-record: the calibration kernel's median was %.2f ms, more than %.0f%% off calib.RefMs (%.2f): set calib.RefMs to it and record again",
			b.Machine.CalibMs, refTolerance*100, calib.RefMs)
	}
	b.Seed, b.ReservedSeed, b.Sets, b.RunSeconds = seed, seed+1000, sets, seconds
	b.EndToEnd = map[string]map[string]quartiles{}
	for _, name := range workloadNames {
		b.EndToEnd[name] = map[string]quartiles{}
		for _, def := range bf.EndToEnd {
			v := values[name][def.Name]
			b.EndToEnd[name][def.Name] = quartiles{Q1: quantile(v, 0.25), Median: median(v), Q3: quantile(v, 0.75), Unit: def.Unit}
		}
	}
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: calibration kernel median %.2f ms (calib.RefMs is %.2f)\n", b.Machine.CalibMs, calib.RefMs)
	return os.WriteFile(baselinePath(e.root), append(raw, '\n'), 0o644)
}
