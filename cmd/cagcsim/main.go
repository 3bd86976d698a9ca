// Command cagcsim runs one scheme on one workload through the
// simulated ultra-low-latency SSD and prints the full measurement
// report: latency distribution, GC counters, write amplification, and
// the reference-count invalidation breakdown.
//
// Usage:
//
//	cagcsim -workload Mail -scheme cagc -policy greedy
//	cagcsim -workload Web-vm -scheme baseline -device 134217728 -requests 50000
//	cagcsim -trace out.json -trace-summary
//	cagcsim -batch 32 -workers 8
//	cagcsim -fleet 10000 -workers 8 -fleet-util-spread 0.1 -fleet-stagger 4
//	cagcsim -array raid1 -members 4 -stagger -steer
//	cagcsim -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"cagc"
	"cagc/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cagcsim:", err)
		os.Exit(1)
	}
}

// invocation is one parsed command line: the job, and what is the
// CLI's own — the output form, tracing and profiling.
type invocation struct {
	job       cagc.Job
	json      bool
	traceOut  string
	traceSum  bool
	traceLast int
	cpuProf   string
	memProf   string
}

// parse maps the command line onto the shared job vocabulary. Numeric
// flags default to 0, the kind's default. A mode flag (-batch, -fleet,
// -array, -replay, -tenants) selects its kind; Resolve refuses any other
// kind's input, so two modes fail there without a check here.
func parse(args []string, stderr io.Writer) (*invocation, error) {
	fs := flag.NewFlagSet("cagcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	inv := &invocation{}
	j, p := &inv.job, &inv.job.Params
	var (
		fp        cagc.FleetParams
		ap        cagc.ArrayParams
		sp        cagc.ScenarioParams
		tenants   string
		diurnalMs float64
	)
	fs.StringVar(&j.Workload, "workload", "Mail", "workload preset: Homes, Web-vm, or Mail")
	fs.StringVar(&j.Scheme, "scheme", "cagc", "scheme: baseline, inline, or cagc")
	fs.StringVar(&j.Policy, "policy", "greedy", "victim policy: greedy, random, or cost-benefit")
	fs.Int64Var(&p.DeviceBytes, "device", 0, "physical flash bytes, Table-I parameters at any scale (0 = 16 MiB)")
	fs.IntVar(&p.Requests, "requests", 0, "measured requests to replay (0 = 20000, or 2000 per -fleet device)")
	fs.Int64Var(&p.Seed, "seed", 0, "workload seed (0 = 1)")
	fs.Float64Var(&p.Utilization, "util", 0, "logical space as a fraction of user capacity (0 = 0.55)")
	fs.IntVar(&p.RefThreshold, "threshold", 0, "CAGC hot/cold reference-count threshold (0 = 1)")
	fs.IntVar(&p.QueueDepth, "qd", 0, "closed-loop queue depth (0 = open-loop trace replay)")
	fs.IntVar(&p.BufferPages, "buffer", 0, "controller write-buffer pages (0 = none)")
	fs.BoolVar(&inv.json, "json", false, "emit the result as JSON instead of the text report")

	fs.BoolVar(&p.ColdStart, "coldstart", false, "bypass the warm-state snapshot cache (build and precondition from scratch)")

	fs.StringVar(&inv.traceOut, "trace", "", "write a Chrome trace_event JSON of the run to this file (load in chrome://tracing or Perfetto)")
	fs.BoolVar(&inv.traceSum, "trace-summary", false, "print the trace summary (per-phase GC attribution, fingerprint/erase overlap, latency percentiles) to stderr")
	fs.IntVar(&inv.traceLast, "trace-last", 0, "flight-recorder mode: keep only the last N trace events (0 = unbounded)")

	fs.IntVar(&j.Count, "batch", 0, "run a batch of N seed-varied runs (seeds seed..seed+N-1) and print the aggregate throughput report")
	fs.IntVar(&j.Workers, "workers", 0, "worker goroutines for -batch and -fleet (0 = one per core)")

	fs.IntVar(&fp.Devices, "fleet", 0, "simulate a fleet of N per-device-perturbed SSDs and print the merged fleet report (deterministic at any -workers)")
	fs.Float64Var(&fp.UtilSpread, "fleet-util-spread", 0, "total width of per-device utilization skew (0 = uniform fleet)")
	fs.IntVar(&fp.UtilClasses, "fleet-util-classes", 0, "distinct utilization classes, one warm snapshot each (0 = default 4 when skew is on)")
	fs.IntVar(&fp.StaggerClasses, "fleet-stagger", 0, "GC-watermark stagger classes desynchronizing fleet GC (0 or 1 = coordinated watermarks)")
	fs.Float64Var(&fp.Diurnal, "fleet-diurnal", 0, "per-device arrival-rate spread: mean inter-arrival scaled by 1 +/- this/2")
	fs.IntVar(&fp.TopK, "fleet-topk", 0, "straggler devices to report (0 = default 10)")

	fs.StringVar(&ap.Mode, "array", "", "replay through a multi-SSD volume instead of one device: raid0 (striped) or raid1 (mirrored)")
	fs.IntVar(&ap.Members, "members", 0, "array members for -array (0 = 2)")
	fs.BoolVar(&ap.Stagger, "stagger", false, "stagger array member GC watermarks (-array)")
	fs.BoolVar(&ap.Steer, "steer", false, "GC-aware read steering (-array raid1)")

	fs.StringVar(&j.ReplayPath, "replay", "", "replay a trace file (binary CAGC container, text, FIU IODedup text, or gzip of any) instead of a synthetic preset; -workload selects the preconditioning mixture")
	fs.StringVar(&j.Replay.Format, "replay-format", "auto", "trace format for -replay and file tenants: auto, binary, text, or fiu")
	fs.Float64Var(&j.Replay.TimeScale, "time-scale", 0, "compress (<1) or stretch (>1) FIU inter-arrival gaps (0 = 1.0; FIU traces span weeks)")

	fs.StringVar(&tenants, "tenants", "", "multi-tenant scenario: comma-separated workload names or trace paths, each optionally '*rate' (e.g. Homes,Web-vm,Mail*2); tenants share the device in disjoint namespaces")
	fs.Float64Var(&diurnalMs, "diurnal-period-ms", 0, "diurnal burst-envelope period over the merged tenant stream, in ms of simulated time (0 = off)")
	fs.Float64Var(&sp.DiurnalAmp, "diurnal-amp", 0, "diurnal burst amplitude in [0,1): arrival rate swings 1 +/- this")
	fs.Float64Var(&sp.SLOUs, "slo-us", 0, "per-tenant response-time SLO in microseconds; violations are counted per tenant (0 = off)")

	fs.StringVar(&inv.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&inv.memProf, "memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if j.Count != 0 {
		j.Kind = cagc.KindSweep
	}
	if fp.Devices != 0 {
		fp.Workers = j.Workers
		j.Kind, j.Fleet = cagc.KindFleet, &fp
	}
	if ap.Mode != "" {
		j.Kind, j.Array = cagc.KindArray, &ap
	}
	if j.ReplayPath != "" {
		j.Kind = cagc.KindReplay
	}
	if tenants != "" {
		specs, err := parseTenants(tenants, j.Replay.Format, j.Replay.TimeScale)
		if err != nil {
			return nil, err
		}
		sp.Tenants = specs
		// Converting a NaN or out-of-range float to an integer is
		// implementation-defined, so the period is checked first.
		period := diurnalMs * float64(cagc.Millisecond)
		if !(period >= 0 && period < math.MaxInt64) { // written so NaN fails
			return nil, fmt.Errorf("-diurnal-period-ms %g: must be finite and >= 0", diurnalMs)
		}
		sp.DiurnalPeriod = cagc.Time(period)
		j.Kind, j.Scenario = cagc.KindScenario, &sp
	}
	return inv, nil
}

// run is the testable body of main. The job is resolved — every default
// applied, every bound checked — before any side effect: a bad
// invocation exits with an error and leaves the filesystem untouched.
func run(args []string, stdout, stderr io.Writer) (retErr error) {
	inv, err := parse(args, stderr)
	if err != nil {
		return err
	}
	var rec *cagc.TraceRecorder
	switch {
	case inv.traceLast > 0 && inv.traceOut == "" && !inv.traceSum:
		return fmt.Errorf("-trace-last needs -trace or -trace-summary to report into")
	case inv.traceLast > 0:
		rec = cagc.NewFlightRecorder(inv.traceLast)
	case inv.traceOut != "" || inv.traceSum:
		rec = cagc.NewTraceRecorder()
	}
	inv.job.Params.Trace = rec
	r, err := inv.job.Resolve()
	if err != nil {
		return err
	}

	// Validation is complete; side effects (profile files) may start.
	stop, err := profiling.Start(inv.cpuProf, inv.memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stop(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	out, err := r.Execute()
	if err != nil {
		return err
	}
	reportCache(stderr)
	// Wall-clock facts go to stderr, so stdout stays byte-identical at
	// any worker count.
	if out.Facts != "" {
		fmt.Fprint(stderr, "cagcsim: "+out.Facts)
	}
	if err := exportTrace(stderr, rec, inv.traceOut, inv.traceSum, r.Label()); err != nil {
		return err
	}
	if inv.json {
		_, err = stdout.Write(out.Doc)
	} else {
		_, err = io.WriteString(stdout, out.Report)
	}
	return err
}

// exportTrace writes the Chrome JSON and/or prints the summary. Both
// land outside stdout's report (file / stderr), so traced and untraced
// runs keep byte-identical stdout.
func exportTrace(stderr io.Writer, rec *cagc.TraceRecorder, out string, summary bool, label string) error {
	if rec == nil {
		return nil
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := cagc.WriteChromeTrace(f, rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "cagcsim: wrote %s (%d events, %d dropped)\n",
			out, rec.Len(), rec.Dropped())
	}
	if summary {
		return cagc.SummarizeTrace(rec).WriteText(stderr, label)
	}
	return nil
}

// reportCache prints warm-state snapshot cache activity to stderr
// (stdout stays machine-readable).
func reportCache(stderr io.Writer) {
	st := cagc.WarmCacheStats()
	if st.Hits+st.Misses == 0 {
		return
	}
	fmt.Fprintf(stderr, "cagcsim: warm-state cache: %d hits, %d misses, %d evictions, %d/%d snapshots\n",
		st.Hits, st.Misses, st.Evictions, st.Snapshots, st.Capacity)
}

// parseTenants splits the -tenants flag: comma-separated entries, each
// a workload preset name or a trace file path, optionally suffixed
// "*rate" (e.g. "Mail*2" issues twice as fast). File tenants inherit
// the -replay-format and -time-scale flags.
func parseTenants(arg, format string, timeScale float64) ([]cagc.TenantSpec, error) {
	if arg == "" {
		return nil, nil
	}
	var specs []cagc.TenantSpec
	for _, entry := range strings.Split(arg, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("-tenants: empty tenant entry")
		}
		var rate float64
		if i := strings.LastIndexByte(entry, '*'); i >= 0 {
			r, err := strconv.ParseFloat(entry[i+1:], 64)
			if err != nil || !(r > 0) || math.IsInf(r, 1) {
				return nil, fmt.Errorf("-tenants: bad rate in %q", entry)
			}
			rate, entry = r, entry[:i]
		}
		t := cagc.TenantSpec{Rate: rate}
		if w, err := cagc.ParseWorkload(entry); err == nil {
			t.Workload = w
		} else {
			t.Path = entry
			t.Format = format
			t.TimeScale = timeScale
		}
		specs = append(specs, t)
	}
	return specs, nil
}
