package main

// serve_rounds: one cagcserve for the whole run, driven over HTTP by
// one client on one connection, one job at a time (closed loop).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"time"

	"cagc"
	"cagc/internal/serve"
)

// The run jobs of a round cycle workload x scheme in this order, so job
// 0 is always Mail x CAGC (the replica's reference job).
var (
	roundWorkloads = []cagc.Workload{cagc.Mail, cagc.Homes, cagc.WebVM}
	roundSchemes   = []cagc.Scheme{cagc.CAGC, cagc.Baseline, cagc.InlineDedupe}
)

// jobStatus mirrors the service's wire status.
type jobStatus struct {
	ID       string  `json:"id"`
	Status   string  `json:"status"`
	Cached   bool    `json:"cached"`
	QueuedMs float64 `json:"queued_ms"`
	RanMs    float64 `json:"ran_ms"`
	Error    string  `json:"error"`
}

// jobTiming is the client-side ledger entry of one delivered job.
type jobTiming struct {
	cached   bool
	submit   time.Duration // POST until the service answered
	total    time.Duration // POST until the last result byte
	queuedMs float64
	ranMs    float64
}

type serveSession struct {
	e      *env
	seed   int64
	cmd    *exec.Cmd
	base   string
	client *http.Client

	refDocs [][]byte // the run documents of timed rounds 0..refRounds-1
	jobs    []jobTiming
	tr      *tracer // non-nil during the traced pass
}

const (
	serverStartTimeout = 20 * time.Second
	jobTimeout         = 60 * time.Second
	pollEvery          = 200 * time.Microsecond
)

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// openServe starts cagcserve on an ephemeral port and waits for
// /healthz, which is what setup_s charges a first request for.
func openServe(e *env, seed int64) (*serveSession, error) {
	logPath := filepath.Join(e.work, "cagcserve.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(e.bin("cagcserve"), "-addr", "127.0.0.1:0", "-jobworkers", "1")
	cmd.Dir = e.work
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serveSession{e: e, seed: seed, cmd: cmd,
		client: &http.Client{Timeout: jobTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	deadline := time.Now().Add(serverStartTimeout)
	for s.base == "" {
		if b, _ := os.ReadFile(logPath); listenRE.Match(b) {
			s.base = string(listenRE.FindSubmatch(b)[1])
			break
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("cagcserve did not report its address within %v", serverStartTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	for {
		if _, code, err := s.get("/healthz"); err == nil && code == http.StatusOK {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("cagcserve /healthz not ready within %v", serverStartTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the server gracefully and waits for it to exit.
func (s *serveSession) close() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

func (s *serveSession) get(path string) ([]byte, int, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// jobSeed derives a job's workload seed from the run seed, the round
// and the job's slot, so no two jobs of a run share a configuration
// (only the deliberate resubmissions may hit the result cache).
func jobSeed(seed int64, round, slot int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(int64(round))*0xbf58476d1ce4e5b9 + uint64(slot)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return int64(x>>2) + 1
}

// roundSpecs lists one round's new submissions: run jobs first, then
// fleet, then batch.
func roundSpecs(sc scale, seed int64, round int) []serve.JobSpec {
	var specs []serve.JobSpec
	slot := 0
	next := func() int64 { slot++; return jobSeed(seed, round, slot) }
	pick := func(i int) (string, string) {
		return string(roundWorkloads[i%3]), roundSchemes[(i/3)%3].String()
	}
	for i := 0; i < sc.runJobs; i++ {
		w, sch := pick(i)
		specs = append(specs, serve.JobSpec{Kind: serve.KindRun, Workload: w, Scheme: sch,
			Params: cagc.Params{Requests: sc.runReqs, Seed: next()}})
	}
	for i := 0; i < sc.fleetJobs; i++ {
		w, sch := pick(i * 4) // Mail x CAGC, then Homes x Baseline
		specs = append(specs, serve.JobSpec{Kind: serve.KindFleet, Workload: w, Scheme: sch,
			Params: cagc.Params{Requests: sc.fleetReqs, Seed: next()},
			Fleet: &cagc.FleetParams{Devices: sc.fleetDevices, Workers: 1,
				UtilSpread: 0.1, UtilClasses: 2, StaggerClasses: 2}})
	}
	for i := 0; i < sc.batchJobs; i++ {
		w, sch := pick(i * 5) // Mail x CAGC, then WebVM x Baseline
		seeds := make([]int64, sc.batchSeeds)
		for k := range seeds {
			seeds[k] = next()
		}
		specs = append(specs, serve.JobSpec{Kind: serve.KindBatch, Workload: w, Scheme: sch,
			Params: cagc.Params{Requests: sc.batchReqs}, Seeds: seeds})
	}
	return specs
}

// runJob submits one job, polls it to completion and fetches its
// result document. It counts one op.
func (s *serveSession) runJob(spec serve.JobSpec, round int) ([]byte, jobStatus, error) {
	s.e.attempted++
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, jobStatus{}, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, jobStatus{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, jobStatus{}, err
	}
	tSubmit := time.Now()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, jobStatus{}, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, st, fmt.Errorf("submit: %w", err)
	}
	for st.Status == serve.StatusQueued || st.Status == serve.StatusRunning {
		if time.Since(t0) > jobTimeout {
			return nil, st, fmt.Errorf("job %s: still %s after %v", st.ID, st.Status, jobTimeout)
		}
		time.Sleep(pollEvery)
		raw, code, err := s.get("/v1/jobs/" + st.ID)
		if err != nil || code != http.StatusOK {
			return nil, st, fmt.Errorf("poll %s: HTTP %d: %v", st.ID, code, err)
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, st, fmt.Errorf("poll %s: %w", st.ID, err)
		}
	}
	tDone := time.Now()
	if st.Status != serve.StatusDone {
		return nil, st, fmt.Errorf("job %s: %s: %s", st.ID, st.Status, st.Error)
	}
	doc, code, err := s.get("/v1/jobs/" + st.ID + "/result")
	if err != nil || code != http.StatusOK {
		return nil, st, fmt.Errorf("result %s: HTTP %d: %v", st.ID, code, err)
	}
	tEnd := time.Now()
	s.jobs = append(s.jobs, jobTiming{cached: st.Cached, submit: tSubmit.Sub(t0), total: tEnd.Sub(t0),
		queuedMs: st.QueuedMs, ranMs: st.RanMs})
	if s.tr != nil {
		// Client-side spans; queued/running split the polled interval by
		// the service's own queued_ms and ran_ms.
		job := s.tr.add(spec.Kind+" job", 0, round, t0, tEnd)
		s.tr.add("submit", job, round, t0, tSubmit)
		queuedEnd := tSubmit.Add(time.Duration(st.QueuedMs * float64(time.Millisecond)))
		if queuedEnd.After(tDone) {
			queuedEnd = tDone
		}
		s.tr.add("queued", job, round, tSubmit, queuedEnd)
		s.tr.add("running", job, round, queuedEnd, tDone)
		s.tr.add("fetch", job, round, tDone, tEnd)
	}
	return doc, st, nil
}

// requestsIn sums the "requests" field over a result document (run and
// fleet documents are one JSON value, batch documents a stream).
func requestsIn(doc []byte) (uint64, error) {
	var n uint64
	dec := json.NewDecoder(bytes.NewReader(doc))
	for {
		var d struct {
			Requests uint64 `json:"requests"`
		}
		if err := dec.Decode(&d); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
		n += d.Requests
	}
}

// iterate runs one round: every new submission, then the
// resubmissions, each polled to completion and fetched.
func (s *serveSession) iterate(round int) (sample, error) {
	cpu0, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return sample{}, err
	}
	specs := roundSpecs(s.e.sc, s.seed, round)
	docs := make([][]byte, len(specs))
	var requests uint64
	var firstErr error
	deliver := func(spec serve.JobSpec, wantCached bool, original []byte) []byte {
		doc, st, err := s.runJob(spec, round)
		switch {
		case err != nil:
		case st.Cached != wantCached:
			err = fmt.Errorf("job %s: cached=%v, want %v", st.ID, st.Cached, wantCached)
		case original != nil && !bytes.Equal(doc, original):
			err = fmt.Errorf("job %s: cached document differs from the original", st.ID)
		}
		if err == nil {
			var n uint64
			if n, err = requestsIn(doc); err == nil {
				requests += n
				return doc
			}
		}
		s.e.fail("round %d: %v", round, err)
		if firstErr == nil {
			firstErr = err
		}
		return nil
	}
	for i, spec := range specs {
		docs[i] = deliver(spec, false, nil)
	}
	for i := 0; i < s.e.sc.resubmits; i++ {
		if docs[i] != nil {
			deliver(specs[i], true, docs[i])
		}
	}
	if firstErr != nil {
		return sample{}, firstErr
	}
	if round >= 0 && round < s.e.sc.refRounds {
		s.refDocs = append(s.refDocs, docs[:s.e.sc.runJobs]...)
	}
	// The server outlives the round: its CPU is the /proc delta across
	// the round (10 ms ticks; the median over rounds absorbs them) and
	// its memory the high-water mark so far.
	cpu1, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return sample{}, err
	}
	hwm, err := procPeakRSSKB(s.cmd.Process.Pid)
	if err != nil {
		return sample{}, err
	}
	return sample{requests: requests, cpu: cpu1 - cpu0, rssKB: hwm}, nil
}

// serviceCounters reads the named counters off one /metrics scrape.
func (s *serveSession) serviceCounters(names ...string) (map[string]float64, error) {
	b, code, err := s.get("/metrics")
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d: %v", code, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, " ")
		if !ok || !slices.Contains(names, name) {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(rest, &v); err != nil {
			return nil, fmt.Errorf("/metrics: %s: %w", name, err)
		}
		out[name] = v
	}
	for _, name := range names {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("/metrics: no %s", name)
		}
	}
	return out, nil
}
