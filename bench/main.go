// Command bench is the repository benchmark: it builds the shipped
// binaries, drives cagcsim and cagcserve the way their users do, checks
// every output document, and reports host time corrected for machine
// speed next to the simulated results. See README.md in this directory.
//
// Usage (from the checkout root):
//
//	go run -C bench . -seed 7                  # all workloads: end-to-end, then the per-layer ledger
//	go run -C bench . --workload mail_cagc --seed 7 --seconds 10 --trace 0
//	go run -C bench . -selfcheck               # noise against the bounds, plus an injected regression
//	go run -C bench . -record 5                # re-record bench/baseline.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cagc"
	"cagc/bench/calib"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the contract's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef and benchmarkFile mirror BENCHMARK.json, the single place
// metric names, directions and bounds are fixed.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all, as a table)")
		seed      = flag.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds   = flag.Float64("seconds", 0, "seconds of timed iterations per pass (default: run_seconds of BENCHMARK.json)")
		traced    = flag.Int("trace", 0, "1: also make the traced pass and run the layer kernels; the JSON line then carries the per-layer metrics")
		smoke     = flag.Bool("smoke", false, "tiny sizes and two iterations: exercises every path, measures nothing")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of the same build against the bounds, then require an injected slowdown just past the bound to be flagged")
		record    = flag.Int("record", 0, "run this many sets (at least 5) and rewrite bench/baseline.json")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced != 0, *smoke, *selfcheck, *record); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced, smoke, selfcheck bool, record int) error {
	sc := fullScale
	if smoke {
		sc = smokeScale
	}
	e, err := newEnv(sc)
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(e.root)
	if err != nil {
		return err
	}
	if seconds == 0 {
		seconds = float64(bf.RunSeconds)
		if smoke {
			seconds = 0 // minIters alone decides
		}
	}
	// The committed baseline gates the simulated results exactly, at the
	// full scale it was recorded at; -record is about to replace it.
	if !smoke && record == 0 {
		if e.base, err = readBaseline(e.root); err != nil {
			return err
		}
	}
	if err := e.build(); err != nil {
		return err
	}
	e.verify()

	switch {
	case selfcheck:
		err = selfCheck(e, bf, seed, seconds)
	case record > 0:
		err = recordBaseline(e, bf, seed, seconds, record)
	case workload != "":
		err = runOne(e, workload, seed, seconds, traced)
	default:
		err = runAll(e, seed, seconds)
	}
	if err == nil && e.failed > 0 {
		err = fmt.Errorf("%d of %d ops failed", e.failed, e.attempted)
	}
	return err
}

// runOne is the driver's entry: one workload, one pass, the JSON line.
func runOne(e *env, name string, seed int64, seconds float64, traced bool) error {
	out, err := runWorkload(e, name, seed, seconds, traced)
	if err != nil {
		return err
	}
	metrics := out.e2e
	if traced {
		metrics = out.layers
	}
	printTable(name, metrics)
	line, err := json.Marshal(report{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll prints every end-to-end metric of every workload (untraced
// pass), then every per-layer metric (traced pass and kernels).
func runAll(e *env, seed int64, seconds float64) error {
	var outs []runOut
	for _, name := range workloadNames {
		out, err := runWorkload(e, name, seed, seconds, true)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printTable(name, out.e2e)
		outs = append(outs, out)
	}
	for i, name := range workloadNames {
		printTable(name, outs[i].layers)
	}
	return nil
}

func printTable(workload string, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-18s %-34s %16.6g %s\n", workload, n, metrics[n].Value, metrics[n].Unit)
	}
}

// runOut is everything one workload run measured.
type runOut struct {
	e2e     map[string]metric
	layers  ledger   // traced runs only
	samples []sample // the untraced timed iterations
}

// tracedRoundBase keeps the traced pass's service rounds clear of the
// untraced pass's round indices: a reused index would resubmit cached
// configurations.
const tracedRoundBase = 1 << 20

// runWorkload sets the workload up (several times; setup_s is the
// median), makes the untraced timed pass behind the end-to-end metrics
// and, when asked, the traced pass behind the per-layer ledger.
func runWorkload(e *env, name string, seed int64, seconds float64, traced bool) (runOut, error) {
	var out runOut
	var s session
	var setups []float64
	for k := 0; k < e.sc.setups; k++ {
		if s != nil {
			s.close()
		}
		var cal float64
		var err error
		if s, cal, err = setUp(e, name, seed); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, cal)
	}
	defer s.close()

	out.samples = measure(e, s, seconds, e.sc.minIters, 0)
	if len(out.samples) < e.sc.minIters {
		return out, fmt.Errorf("only %d of at least %d timed iterations succeeded", len(out.samples), e.sc.minIters)
	}
	// Memory is read over a fixed number of iterations: the server keeps
	// every job it ever ran, so its high-water mark grows with the round
	// count, which follows -seconds and the machine's speed.
	var rssKB int64
	for _, sm := range out.samples[:e.sc.minIters] {
		rssKB = max(rssKB, sm.rssKB)
	}
	var cpuTotal time.Duration
	for _, sm := range out.samples {
		cpuTotal += sm.cpu
	}
	cpuPerReq := median(pick(out.samples, func(sm sample) float64 {
		return usOf(sm.cpu) * calib.RefMs / sm.calibMs / float64(sm.requests)
	}))

	st, err := statsOf(referenceDocs(s))
	if err != nil {
		e.fail("%s: reference documents: %v", name, err)
		return out, err
	}
	perIter := float64(out.samples[0].requests)
	out.e2e = map[string]metric{
		"setup_s":            {median(setups), "s"},
		"cal_requests_per_s": {perIter / median(pick(out.samples, sample.calSeconds)), "1/s"},
		"cal_cpu_us_per_req": {cpuPerReq, "us"},
		"peak_rss_mb":        {float64(rssKB) / 1024, "MiB"},
		"sim_mean_us":        {st.meanUs, "us"},
		"sim_p999_us":        {st.p999Us, "us"},
		"sim_gc_mean_us":     {st.gcMeanUs, "us"},
		"sim_wa":             {st.wa, "ratio"},
	}
	e.checkBaseline(name, seed, out.e2e)
	fmt.Fprintf(os.Stderr, "bench: %s: %d timed iterations, within-run spread (IQR/median) raw %.4f, calibrated %.4f; %d ops so far, %d failed\n",
		name, len(out.samples), iqrShare(pick(out.samples, sample.rawSeconds)),
		iqrShare(pick(out.samples, sample.calSeconds)), e.attempted, e.failed)
	if traced {
		out.layers, err = tracedPass(e, name, seed, seconds, s, out.samples, cpuTotal)
	}
	return out, err
}

// referenceRun describes the run the in-process replica reproduces and
// the document it must match: the CLI run of seed variant 0, or round
// 0's first job (Mail x CAGC) for the service.
func referenceRun(e *env, seed int64, s session) (w cagc.Workload, sch cagc.Scheme, p cagc.Params, path string, want []byte) {
	switch s := s.(type) {
	case *cliSession:
		v := s.variants[0]
		if s.spec.replay {
			// cagcsim -replay keeps the default -requests and -seed for
			// the preconditioning spec; the file carries the workload.
			return s.spec.workload, s.spec.scheme, defaultParams(20000, 1), v.tracePath, v.doc
		}
		return s.spec.workload, s.spec.scheme, defaultParams(s.spec.requests, v.seed), "", v.doc
	case *serveSession:
		return roundWorkloads[0], roundSchemes[0], defaultParams(e.sc.runReqs, jobSeed(seed, 0, 1)), "", s.refDocs[0]
	}
	panic("unreachable: unknown session type")
}

// tracedPass fills the per-layer ledger: the replica's spans, the
// service's client-side spans, the exact counts of the reference
// document, the layer kernels, and the raw host diagnostics.
func tracedPass(e *env, name string, seed int64, seconds float64, s session, untraced []sample, cpuTotal time.Duration) (ledger, error) {
	l := ledger{}
	tr := newTracer()
	w, sch, p, path, want := referenceRun(e, seed, s)
	var rr replicaResult
	var replicaWalls []float64
	for i := 0; i < e.sc.replicaIters; i++ {
		var err error
		if rr, err = replica(tr, i, w, sch, p, path); err != nil {
			return nil, err
		}
		e.attempted++
		if !bytes.Equal(rr.doc, want) {
			e.fail("%s: in-process replica's document differs from the program's", name)
		}
		replicaWalls = append(replicaWalls, rr.wall.Seconds())
	}

	// The service's layers are measured on the workload that drives the
	// service, against its own server; a CLI workload never touches them.
	overhead := median(replicaWalls) / median(pick(untraced, sample.rawSeconds))
	ss, service := s.(*serveSession)
	if service {
		ss.tr, ss.jobs = tr, nil
		tracedSamples := measure(e, ss, seconds, e.sc.minIters, tracedRoundBase)
		if len(tracedSamples) == 0 {
			return nil, fmt.Errorf("no traced round succeeded")
		}
		overhead = median(pick(tracedSamples, sample.calSeconds)) / median(pick(untraced, sample.calSeconds))
		if err := serveLedger(l, ss); err != nil {
			return nil, err
		}
	} else {
		for n, unit := range serviceOnly {
			l.put(n, 0, unit)
		}
	}

	// sim: the replica's spans.
	l.put("sim.build_ms", tr.medianUs("sim.NewRunner", false)/1e3, "ms")
	l.put("sim.precondition_ms", tr.medianUs("Runner.Precondition", false)/1e3, "ms")
	l.put("sim.replay_ms", tr.medianUs("Runner.Replay", false)/1e3, "ms")
	l.put("sim.replay_self_ns_per_request", tr.medianUs("Runner.Replay", true)*1e3/float64(rr.res.Requests), "ns")
	l.put("trace.stream_stall_ratio", rr.stream.StallRatio(), "ratio")

	// Exact counts, from the reference document's Result.
	f := rr.res.FTL
	l.put("event.events_per_request", float64(cagc.EventsOf(rr.res))/float64(rr.res.Requests), "ratio")
	l.put("flash.programs", float64(f.TotalPrograms()), "count")
	l.put("flash.erases", float64(f.BlocksErased), "count")
	hitRatio := 0.0
	if f.HashOps > 0 {
		hitRatio = float64(f.InlineDupHits+f.GCDupDropped) / float64(f.HashOps)
	}
	l.put("dedup.hit_ratio", hitRatio, "ratio")
	l.put("ftl.gc_invocations", float64(f.GCInvocations), "count")
	l.put("ftl.gc_pages_migrated", float64(f.PagesMigrated), "count")
	l.put("ftl.gc_dedup_hits", float64(f.GCDupDropped), "count")

	if err := kernels(l, e, seed, rr, w, sch, p, service); err != nil {
		return nil, err
	}

	// host: raw, uncalibrated, so a reader can see which machine mode
	// the run hit.
	walls := pick(untraced, func(sm sample) float64 { return msOf(sm.wall) })
	calibs := pick(untraced, func(sm sample) float64 { return sm.calibMs })
	var wallSum time.Duration
	for _, sm := range untraced {
		wallSum += sm.wall
	}
	l.put("host.wall_ms_p50", median(walls), "ms")
	l.put("host.wall_ms_p80", quantile(walls, 0.8), "ms")
	l.put("host.calib_ms_p50", median(calibs), "ms")
	l.put("host.calib_spread", iqrShare(calibs), "ratio")
	l.put("host.cpu_over_wall", cpuTotal.Seconds()/wallSum.Seconds(), "ratio")
	l.put("host.build_s", e.buildS, "s")
	l.put("host.trace_overhead", overhead, "ratio")

	for n, m := range l {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("per-layer metric %s is not finite", n)
		}
	}
	return l, tr.write(filepath.Join(e.out, "trace-"+name+".json"))
}

// sharedKernels runs the kernels that depend on no workload (event,
// flash, fingerprint index) once per process, however many workloads
// the process traces.
func (e *env) sharedKernels() error {
	if e.shared != nil {
		return nil
	}
	l, n := ledger{}, e.sc.kernelOps
	eventKernel(l, 2*n)
	var err error
	if e.flashNs, err = flashKernel(l, n/2); err != nil {
		return err
	}
	if e.dedupNs, err = dedupKernel(l, n/4); err != nil {
		return err
	}
	e.shared = l
	return nil
}

// kernels runs the layer kernels against the reference run's
// configuration and workload spec; the pool and fleet kernels only for
// the workload that drives the service.
func kernels(l ledger, e *env, seed int64, rr replicaResult, w cagc.Workload, sch cagc.Scheme, p cagc.Params, service bool) error {
	if err := e.sharedKernels(); err != nil {
		return err
	}
	for n, m := range e.shared {
		l[n] = m
	}
	n := e.sc.kernelOps
	steps := []func() error{
		func() error { return ftlKernel(l, rr.cfg, rr.spec, n/16, e.flashNs, e.dedupNs) },
		func() error { return traceKernel(l, rr.spec, n/4) },
		func() error { return simKernel(l, rr.cfg, rr.spec, max(3, n>>17)) },
		func() error { return cagcKernel(l, rr.res, w, sch, p, n) },
	}
	if service {
		steps = append(steps, func() error {
			return poolFleetKernel(l, seed, n/4, max(4, n>>14), e.sc.fleetReqs)
		})
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// serveLedger turns a session's client-side job timings and the
// service's own counters into the serve.* and pool.steals metrics.
func serveLedger(l ledger, ss *serveSession) error {
	var submits, hits, totals, queued, ran []float64
	for _, j := range ss.jobs {
		if j.cached {
			hits = append(hits, msOf(j.total))
			continue
		}
		submits = append(submits, usOf(j.submit))
		totals = append(totals, msOf(j.total))
		queued = append(queued, j.queuedMs)
		ran = append(ran, j.ranMs)
	}
	if len(totals) == 0 || len(hits) == 0 {
		return fmt.Errorf("service ledger: no delivered jobs to summarise")
	}
	l.put("serve.submit_us", median(submits), "us")
	l.put("serve.hit_ms", median(hits), "ms")
	l.put("serve.job_p50_ms", median(totals), "ms")
	l.put("serve.job_p95_ms", quantile(totals, 0.95), "ms")
	l.put("serve.queue_wait_ms", median(queued), "ms")
	l.put("serve.ran_ms", median(ran), "ms")
	c, err := ss.serviceCounters("serve_cache_hits_total", "serve_cache_misses_total", "serve_jobs_rejected_total", "pool_steals_total")
	if err != nil {
		return err
	}
	cacheHits, cacheMisses := c["serve_cache_hits_total"], c["serve_cache_misses_total"]
	l.put("serve.cache_hit_ratio", cacheHits/max(1, cacheHits+cacheMisses), "ratio")
	l.put("serve.rejected", c["serve_jobs_rejected_total"], "count")
	l.put("pool.steals", c["pool_steals_total"], "count")
	return nil
}
