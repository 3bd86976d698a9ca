package main

// Host-side plumbing: locating the checkout, building the shipped
// binaries, running children with rusage, reading /proc for the server,
// and the calibrated measurement loop every workload shares.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cagc/bench/calib"
)

// env is one benchmark process's view of the checkout plus its op
// ledger. An op is one CLI invocation or one service job.
type env struct {
	root   string // checkout root (holds go.mod and cmd/)
	work   string // .bench_build: binaries, generated traces, server logs
	out    string // bench/out: span files
	sc     scale
	buildS float64   // wall seconds of the go build, for host.build_s
	slow   float64   // selfcheck's injected regression: extra share of each iteration's wall slept inside the timed region
	base   *baseline // bench/baseline.json; nil when it does not apply (-smoke, -record)

	attempted int
	failed    int

	// The workload-independent layer kernels, run once per process
	// (sharedKernels): their ledger entries and the costs ftlKernel
	// subtracts.
	shared  ledger
	flashNs flashCosts
	dedupNs dedupCosts
}

func (e *env) bin(name string) string { return filepath.Join(e.work, "bin", name) }

// fail records one failed op (or failed output check) with its reason.
func (e *env) fail(format string, args ...any) {
	e.failed++
	fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
}

// findRoot walks up from the working directory to the checkout root,
// so the harness runs from the root (go run -C bench .) and from
// bench/ (go test) alike.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cagcsim", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (cmd/cagcsim) above the working directory")
		}
		dir = parent
	}
}

func newEnv(sc scale) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, work: filepath.Join(root, ".bench_build"), out: filepath.Join(root, "bench", "out"), sc: sc}
	for _, d := range []string{filepath.Join(e.work, "bin"), e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// build compiles the four shipped binaries the workloads drive, and the
// benchmark's own launcher. With a warm build cache and up-to-date
// outputs this is well under a second.
func (e *env) build() error {
	t0 := time.Now()
	bin := filepath.Join(e.work, "bin") + string(filepath.Separator)
	for _, b := range []struct {
		dir  string
		pkgs []string
	}{
		{e.root, []string{"./cmd/cagcsim", "./cmd/cagcserve", "./cmd/cagctrace", "./cmd/figures"}},
		{filepath.Join(e.root, "bench"), []string{"./launch"}},
	} {
		cmd := exec.Command("go", append([]string{"build", "-o", bin}, b.pkgs...)...)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build: %v\n%s", err, out)
		}
	}
	e.buildS = time.Since(t0).Seconds()
	return nil
}

// verify runs the paper-fidelity audit once per process: a benchmark
// number for a simulator that no longer reproduces the paper is not a
// number worth keeping.
func (e *env) verify() {
	r := e.child(e.bin("figures"), "-exp", "verify")
	if r.err != nil {
		e.fail("figures -exp verify: %v", r.err)
		return
	}
	if !bytes.Contains(r.stdout, []byte("16/16 checks passed")) {
		e.fail("figures -exp verify: want 16/16, got %q", lastLine(r.stdout))
	}
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// childResult is one finished CLI invocation.
type childResult struct {
	stdout []byte
	wall   time.Duration
	cpu    time.Duration // user+sys
	rssKB  int64         // ru_maxrss
	err    error
}

const childTimeout = 60 * time.Second

// child runs one CLI invocation to completion and counts it as an op.
// The program runs under bench/launch, which reports its CPU time and
// peak memory on descriptor 3 (see there for why the harness's own
// wait4 cannot).
func (e *env) child(path string, args ...string) childResult {
	e.attempted++
	usageR, usageW, err := os.Pipe()
	if err != nil {
		return childResult{err: err}
	}
	defer usageR.Close()
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.bin("launch"), append([]string{path}, args...)...)
	cmd.Dir = e.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.ExtraFiles = []*os.File{usageW}
	t0 := time.Now()
	err = cmd.Run()
	r := childResult{stdout: stdout.Bytes(), wall: time.Since(t0)}
	usageW.Close()
	if err != nil {
		r.err = fmt.Errorf("%s %s: %v: %s", filepath.Base(path), strings.Join(args, " "), err, lastLine(stderr.Bytes()))
		return r
	}
	var cpuNs int64
	if _, err := fmt.Fscan(usageR, &cpuNs, &r.rssKB); err != nil {
		r.err = fmt.Errorf("%s: no usage report from the launcher: %v", filepath.Base(path), err)
	}
	r.cpu = time.Duration(cpuNs)
	return r
}

// procCPU returns a live process's cumulative user+sys time from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume
	// after its closing parenthesis.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat times", pid)
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on every Linux ABI
	return time.Duration(ut+st) * tick, nil
}

// procPeakRSSKB returns a live process's VmHWM.
func procPeakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// sample is one timed iteration.
type sample struct {
	wall     time.Duration
	calibMs  float64       // mean of the calibration kernel before and after
	cpu      time.Duration // user+sys the program spent in this iteration
	rssKB    int64         // ru_maxrss of the child, or the server's VmHWM so far
	requests uint64        // trace requests in the documents this iteration delivered
}

func (s sample) rawSeconds() float64 { return s.wall.Seconds() }

// calSeconds is the iteration's wall time corrected for machine speed.
func (s sample) calSeconds() float64 { return s.wall.Seconds() * calib.RefMs / s.calibMs }

// session is a prepared workload: iterate runs one closed-loop
// iteration (one CLI invocation, or one round of service jobs). A
// session records its own failed ops on the env; the returned error
// only tells the caller the iteration's sample is unusable.
type session interface {
	iterate(i int) (sample, error)
	close()
}

// measure runs iterations first, first+1, ... back to back for at least
// `seconds` of wall time and at least minIters iterations, bracketing
// each with the calibration kernel (one kernel run is shared by
// adjacent iterations).
func measure(e *env, s session, seconds float64, minIters, first int) []sample {
	var out []sample
	start := time.Now()
	before := calib.Measure()
	for i := 0; i < minIters || time.Since(start).Seconds() < seconds; i++ {
		t0 := time.Now()
		sm, err := s.iterate(first + i)
		if e.slow > 0 {
			time.Sleep(time.Duration(float64(time.Since(t0)) * e.slow))
		}
		sm.wall = time.Since(t0)
		after := calib.Measure()
		sm.calibMs = (before + after) / 2
		before = after
		if err == nil {
			out = append(out, sm)
		}
	}
	return out
}

// Order statistics. quantile interpolates like Python's
// statistics.quantiles(method="exclusive"), the rule the contract's
// spread check uses.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// iqrShare is (Q3-Q1)/median: the run-to-run spread the contract bounds.
func iqrShare(v []float64) float64 {
	return (quantile(v, 0.75) - quantile(v, 0.25)) / median(v)
}

func pick[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
