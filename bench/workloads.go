package main

// The four workloads, their sizes, and the three CLI sessions. The
// service session lives in serve.go. Why each workload exists is
// recorded in BENCHMARK.json and bench/README.md.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"cagc"
	"cagc/bench/calib"
)

var workloadNames = []string{"webvm_baseline", "mail_cagc", "homes_inline_file", "serve_rounds"}

// scale fixes how much work one iteration does. Sizes are constants of
// the benchmark, never derived from time, so two commits do identical
// work per iteration; only the number of iterations follows -seconds.
type scale struct {
	webvmReqs, mailReqs, homesReqs int // CLI workloads: trace requests per invocation

	// serve_rounds: one round's submissions.
	runJobs, runReqs                   int
	fleetJobs, fleetDevices, fleetReqs int
	batchJobs, batchSeeds, batchReqs   int
	resubmits                          int
	refRounds                          int // rounds whose run documents back sim_* (pooled: one 4000-request run is too few samples)

	setups   int // set-ups per run; setup_s is their median
	warmups  int // untimed iterations inside each set-up
	minIters int // floor on timed iterations, whatever -seconds says; peak_rss_mb covers exactly these

	replicaIters int // traced in-process replicas of the reference run
	kernelOps    int // base operation count of the layer kernels
}

var fullScale = scale{
	webvmReqs: 100000, mailReqs: 250000, homesReqs: 250000,
	runJobs: 20, runReqs: 4000,
	fleetJobs: 2, fleetDevices: 32, fleetReqs: 1000,
	batchJobs: 2, batchSeeds: 8, batchReqs: 1000,
	resubmits: 8, refRounds: 4,
	setups: 7, warmups: 3, minIters: 25,
	replicaIters: 9, kernelOps: 1 << 20,
}

// smokeScale keeps every code path and every metric while finishing in
// seconds; its numbers mean nothing.
var smokeScale = scale{
	webvmReqs: 3000, mailReqs: 3000, homesReqs: 3000,
	runJobs: 4, runReqs: 300,
	fleetJobs: 1, fleetDevices: 4, fleetReqs: 200,
	batchJobs: 1, batchSeeds: 2, batchReqs: 200,
	resubmits: 2, refRounds: 1,
	setups: 1, warmups: 1, minIters: 2,
	replicaIters: 2, kernelOps: 1 << 12,
}

// cliSpec is one CLI workload: the flags a user would type, and the
// same run described for the in-process replica.
type cliSpec struct {
	workload cagc.Workload
	scheme   cagc.Scheme
	requests int
	replay   bool // generate a trace file in set-up and replay it
}

func cliSpecOf(name string, sc scale) (cliSpec, bool) {
	switch name {
	case "webvm_baseline":
		return cliSpec{workload: cagc.WebVM, scheme: cagc.Baseline, requests: sc.webvmReqs}, true
	case "mail_cagc":
		return cliSpec{workload: cagc.Mail, scheme: cagc.CAGC, requests: sc.mailReqs}, true
	case "homes_inline_file":
		return cliSpec{workload: cagc.Homes, scheme: cagc.InlineDedupe, requests: sc.homesReqs, replay: true}, true
	}
	return cliSpec{}, false
}

// seedVariants is how many seeds a CLI workload cycles through. One
// seed's host time and simulated results sit a few percent off the
// next one's (Mail x CAGC: 4% IQR across seeds), which would be the
// floor of every run-to-run spread; a run's median over five seeds
// derived from --seed moves far less.
const seedVariants = 5

// variantSeed is the k-th seed a run derives from --seed; variant 0 is
// --seed itself, so `cagcsim -seed S` reproduces it by hand.
func variantSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return jobSeed(seed, k, 0) // slot 0 is never a service job's
}

// cliVariant is one seed's invocation and what its first document said.
type cliVariant struct {
	seed      int64
	args      []string
	tracePath string // replay workloads: the generated trace file
	doc       []byte // the first document; every later one must hash the same
	docSum    [32]byte
}

// cliSession drives cagcsim in a fresh process per iteration, cycling
// through the seed variants.
type cliSession struct {
	e        *env
	spec     cliSpec
	variants [seedVariants]cliVariant
	requests uint64 // trace requests per document: the same for every variant
}

func openCLI(e *env, spec cliSpec, seed int64) (*cliSession, error) {
	c := &cliSession{e: e, spec: spec}
	for k := range c.variants {
		v := &c.variants[k]
		v.seed = variantSeed(seed, k)
		if !spec.replay {
			v.args = []string{"-workload", string(spec.workload), "-scheme", spec.scheme.String(),
				"-requests", strconv.Itoa(spec.requests), "-seed", strconv.FormatInt(v.seed, 10), "-json"}
			continue
		}
		v.tracePath = filepath.Join(e.work, fmt.Sprintf("%s-%d.bin", spec.workload, v.seed))
		r := e.child(e.bin("cagctrace"), "gen", "-workload", string(spec.workload),
			"-requests", strconv.Itoa(spec.requests), "-seed", strconv.FormatInt(v.seed, 10), "-o", v.tracePath)
		if r.err != nil {
			c.close()
			return nil, r.err
		}
		v.args = []string{"-replay", v.tracePath, "-workload", string(spec.workload), "-scheme", spec.scheme.String(), "-json"}
	}
	return c, nil
}

// variant maps an iteration index (warm-ups count down from -1) to its
// seed variant.
func (c *cliSession) variant(i int) *cliVariant {
	return &c.variants[(i%seedVariants+seedVariants)%seedVariants]
}

func (c *cliSession) iterate(i int) (sample, error) {
	v := c.variant(i)
	r := c.e.child(c.e.bin("cagcsim"), v.args...)
	err := r.err
	switch {
	case err != nil:
	case v.doc == nil:
		var st docStats
		if st, err = statsOf([][]byte{r.stdout}); err == nil {
			v.doc, v.docSum, c.requests = r.stdout, sha256.Sum256(r.stdout), st.requests
		}
	case sha256.Sum256(r.stdout) != v.docSum:
		err = fmt.Errorf("document differs from the first one of seed %d (determinism broken)", v.seed)
	}
	if err != nil {
		c.e.fail("iteration %d: %v", i, err)
		return sample{}, err
	}
	return sample{cpu: r.cpu, rssKB: r.rssKB, requests: c.requests}, nil
}

func (c *cliSession) close() {
	for _, v := range c.variants {
		if v.tracePath != "" {
			os.Remove(v.tracePath)
		}
	}
}

// docStats is what the harness reads out of result documents.
type docStats struct {
	requests uint64
	meanUs   float64 // mean response time, request-weighted over the documents
	gcMeanUs float64 // mean response time of requests that arrived during GC (Figure 11's quantity)
	p999Us   float64 // mean over the documents of each one's p99.9 response time
	wa       float64 // flash programs / user-written pages, summed over the documents
}

// statsOf folds run documents (a document may itself be a multi-
// document batch stream) into one docStats.
func statsOf(docs [][]byte) (docStats, error) {
	var st docStats
	var lat, gc, gcN, programs, written, p999, runs float64
	for _, doc := range docs {
		dec := json.NewDecoder(bytes.NewReader(doc))
		for {
			var s cagc.Summary
			if err := dec.Decode(&s); err == io.EOF {
				break
			} else if err != nil {
				return st, fmt.Errorf("result document: %w", err)
			}
			st.requests += s.Requests
			lat += s.Latency.MeanUs * float64(s.Latency.Count)
			gc += s.GCLatency.MeanUs * float64(s.GCLatency.Count)
			gcN += float64(s.GCLatency.Count)
			programs += s.WriteAmplification * float64(s.UserWritePages)
			written += float64(s.UserWritePages)
			p999 += s.Latency.P999Us
			runs++
		}
	}
	if st.requests == 0 || gcN == 0 || written == 0 {
		return st, fmt.Errorf("result documents carry no requests, no GC-period requests or no writes")
	}
	st.meanUs, st.gcMeanUs, st.wa, st.p999Us = lat/float64(st.requests), gc/gcN, programs/written, p999/runs
	return st, nil
}

// open prepares a workload the way its first user would.
func open(e *env, name string, seed int64) (session, error) {
	if spec, ok := cliSpecOf(name, e.sc); ok {
		return openCLI(e, spec, seed)
	}
	if name == "serve_rounds" {
		return openServe(e, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// setUp opens the workload and runs the warm-up iterations, returning
// the calibrated seconds a first request pays for all of it. Like a
// timed iteration, each warm-up is bracketed by the calibration kernel
// (opening is timed with the first one).
func setUp(e *env, name string, seed int64) (session, float64, error) {
	before := calib.Measure()
	t0 := time.Now()
	s, err := open(e, name, seed)
	if err != nil {
		return nil, 0, err
	}
	var cal float64
	for i := 0; i < e.sc.warmups; i++ {
		if _, err := s.iterate(-1 - i); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		wall := time.Since(t0).Seconds()
		after := calib.Measure()
		cal += wall * calib.RefMs / ((before + after) / 2)
		before, t0 = after, time.Now()
	}
	return s, cal, nil
}

// referenceDocs returns the documents a session's sim_* metrics are
// read from.
func referenceDocs(s session) [][]byte {
	switch s := s.(type) {
	case *cliSession:
		var docs [][]byte
		for _, v := range s.variants {
			docs = append(docs, v.doc)
		}
		return docs
	case *serveSession:
		return s.refDocs
	}
	return nil
}
