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
	"os"
	"strconv"
	"strings"
	"time"

	"cagc"
	"cagc/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cagcsim:", err)
		os.Exit(1)
	}
}

// run is the testable body of main. Every flag is validated before any
// side effect (in particular before profile files are created): a bad
// invocation exits with an error and leaves the filesystem untouched.
func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("cagcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "Mail", "workload preset: Homes, Web-vm, or Mail")
		scheme   = fs.String("scheme", "cagc", "scheme: baseline, inline, or cagc")
		policy   = fs.String("policy", "greedy", "victim policy: greedy, random, or cost-benefit")
		device   = fs.Int64("device", 16<<20, "physical flash bytes (Table-I parameters at any scale)")
		requests = fs.Int("requests", 20000, "measured requests to replay")
		seed     = fs.Int64("seed", 1, "workload seed")
		util     = fs.Float64("util", 0.55, "logical space as a fraction of user capacity")
		thresh   = fs.Int("threshold", 1, "CAGC hot/cold reference-count threshold")
		qd       = fs.Int("qd", 0, "closed-loop queue depth (0 = open-loop trace replay)")
		bufPages = fs.Int("buffer", 0, "controller write-buffer pages (0 = none)")
		asJSON   = fs.Bool("json", false, "emit the result as JSON instead of the text report")

		cold = fs.Bool("coldstart", false, "bypass the warm-state snapshot cache (build and precondition from scratch)")

		traceOut  = fs.String("trace", "", "write a Chrome trace_event JSON of the run to this file (load in chrome://tracing or Perfetto)")
		traceSum  = fs.Bool("trace-summary", false, "print the trace summary (per-phase GC attribution, fingerprint/erase overlap, latency percentiles) to stderr")
		traceLast = fs.Int("trace-last", 0, "flight-recorder mode: keep only the last N trace events (0 = unbounded)")

		batch   = fs.Int("batch", 0, "run a batch of N seed-varied runs (seeds seed..seed+N-1) and print the aggregate throughput report")
		workers = fs.Int("workers", 0, "worker goroutines for -batch and -fleet (0 = one per core)")

		fleetN       = fs.Int("fleet", 0, "simulate a fleet of N per-device-perturbed SSDs and print the merged fleet report (deterministic at any -workers)")
		fleetShard   = fs.Int("fleet-shard", 0, "devices per shard (scheduling granularity only; 0 = default 64)")
		fleetUtil    = fs.Float64("fleet-util-spread", 0, "total width of per-device utilization skew (0 = uniform fleet)")
		fleetUtilCls = fs.Int("fleet-util-classes", 0, "distinct utilization classes, one warm snapshot each (0 = default 4 when skew is on)")
		fleetStagger = fs.Int("fleet-stagger", 0, "GC-watermark stagger classes desynchronizing fleet GC (0 or 1 = coordinated watermarks)")
		fleetDiurnal = fs.Float64("fleet-diurnal", 0, "per-device arrival-rate spread: mean inter-arrival scaled by 1 +/- this/2")
		fleetTopK    = fs.Int("fleet-topk", 0, "straggler devices to report (0 = default 10)")

		arrayMode = fs.String("array", "", "replay through a multi-SSD volume instead of one device: raid0 (striped) or raid1 (mirrored)")
		members   = fs.Int("members", 2, "array members for -array")
		stagger   = fs.Bool("stagger", false, "stagger array member GC watermarks (-array)")
		steer     = fs.Bool("steer", false, "GC-aware read steering (-array raid1)")

		replayPath = fs.String("replay", "", "replay a trace file (binary CAGC container, text, FIU IODedup text, or gzip of any) instead of a synthetic preset; -workload selects the preconditioning mixture")
		replayFmt  = fs.String("replay-format", "auto", "trace format for -replay and file tenants: auto, binary, text, or fiu")
		timeScale  = fs.Float64("time-scale", 0, "compress (<1) or stretch (>1) FIU inter-arrival gaps (0 = 1.0; FIU traces span weeks)")
		chunk      = fs.Int("chunk", 0, "decode-ahead chunk size in requests (0 = default 256)")
		syncDecode = fs.Bool("sync-decode", false, "decode on the simulator goroutine instead of the background reader (byte-identical; for comparison)")

		tenants    = fs.String("tenants", "", "multi-tenant scenario: comma-separated workload names or trace paths, each optionally '*rate' (e.g. Homes,Web-vm,Mail*2); tenants share the device in disjoint namespaces")
		diurnalMs  = fs.Float64("diurnal-period-ms", 0, "diurnal burst-envelope period over the merged tenant stream, in ms of simulated time (0 = off)")
		diurnalAmp = fs.Float64("diurnal-amp", 0, "diurnal burst amplitude in [0,1): arrival rate swings 1 +/- this")
		sloUs      = fs.Float64("slo-us", 0, "per-tenant response-time SLO in microseconds; violations are counted per tenant (0 = off)")

		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Scheduling flags keep 0 as a "use the default" sentinel, so only
	// explicitly-set bad values are rejected.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateSchedFlags(set, *fleetShard, *workers, *fleetTopK); err != nil {
		return err
	}

	s, err := cagc.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	w, err := findWorkload(*workload)
	if err != nil {
		return err
	}
	// A name the run would otherwise only reject after the harness has
	// committed resources: fail it here, with everything else, before
	// any file is created.
	if err := cagc.ValidatePolicy(*policy); err != nil {
		return err
	}
	p := cagc.Params{
		DeviceBytes:  *device,
		Requests:     *requests,
		Seed:         *seed,
		Utilization:  *util,
		RefThreshold: *thresh,
		QueueDepth:   *qd,
		BufferPages:  *bufPages,
		ColdStart:    *cold,
	}

	modes := 0
	for _, on := range []bool{*batch > 0, *fleetN > 0, *arrayMode != "", *replayPath != "", *tenants != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-batch, -fleet, -array, -replay, and -tenants are mutually exclusive modes")
	}
	if _, err := cagc.ParseTraceFormat(*replayFmt); err != nil {
		return err
	}
	if *diurnalAmp < 0 || *diurnalAmp >= 1 {
		return fmt.Errorf("-diurnal-amp %g: amplitude must be in [0, 1)", *diurnalAmp)
	}
	if *chunk < 0 {
		return fmt.Errorf("-chunk %d: chunk size cannot be negative (0 = default)", *chunk)
	}
	tenantSpecs, err := parseTenants(*tenants, *replayFmt, *timeScale)
	if err != nil {
		return err
	}

	tracing := *traceOut != "" || *traceSum || *traceLast > 0
	if tracing && *batch > 0 {
		return fmt.Errorf("-trace/-trace-summary/-trace-last cannot be combined with -batch (the harness times many runs; trace one)")
	}
	if tracing && *arrayMode != "" {
		return fmt.Errorf("-trace/-trace-summary/-trace-last cannot be combined with -array (the array layer is untraced)")
	}
	if *arrayMode != "" && *qd != 0 {
		return fmt.Errorf("-qd cannot be combined with -array (the array replays open loop)")
	}
	if *arrayMode != "" && *bufPages != 0 {
		return fmt.Errorf("-buffer cannot be combined with -array (array members have no write buffer)")
	}
	if *traceLast > 0 && *traceOut == "" && !*traceSum {
		return fmt.Errorf("-trace-last needs -trace or -trace-summary to report into")
	}
	var rec *cagc.TraceRecorder
	if tracing {
		if *traceLast > 0 {
			rec = cagc.NewFlightRecorder(*traceLast)
		} else {
			rec = cagc.NewTraceRecorder()
		}
		p.Trace = rec
	}

	// Validation is complete; side effects (profile files) may start.
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stop(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	if *fleetN > 0 {
		// Fleet scale trades per-device depth for breadth: default to
		// 2000 requests per device unless the user asked for a count.
		if !set["requests"] {
			p.Requests = 2000
		}
		fr, err := cagc.RunFleet(w, s, *policy, p, cagc.FleetParams{
			Devices:        *fleetN,
			ShardSize:      *fleetShard,
			Workers:        *workers,
			UtilSpread:     *fleetUtil,
			UtilClasses:    *fleetUtilCls,
			StaggerClasses: *fleetStagger,
			Diurnal:        *fleetDiurnal,
			TopK:           *fleetTopK,
		})
		if err != nil {
			return err
		}
		reportCache(stderr)
		if err := exportTrace(stderr, rec, *traceOut, *traceSum,
			fmt.Sprintf("fleet %d x %s x %s x %s", *fleetN, w, s, *policy)); err != nil {
			return err
		}
		if *asJSON {
			// The JSON document is the deterministic fleet report —
			// byte-identical at any -workers, so CI diffs it. Wall-clock
			// facts go to stderr, exactly like batch mode.
			if err := cagc.WriteFleetJSON(stdout, fr.Result); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "fleet: %d devices, %d workers, wall %v, %.1f devices/s, %.0f events/s\n",
				fr.Result.Devices, fr.Workers, fr.Wall.Round(time.Millisecond),
				fr.DevicesPerSec(), fr.AggregateEventsPerSec())
			return nil
		}
		cagc.FprintFleet(stdout, fr)
		return nil
	}

	if *arrayMode != "" {
		res, err := cagc.RunArray(w, s, p, cagc.ArrayParams{
			Mode:    *arrayMode,
			Members: *members,
			Stagger: *stagger,
			Steer:   *steer,
		})
		if err != nil {
			return err
		}
		if *asJSON {
			return cagc.WriteArrayJSON(stdout, res)
		}
		cagc.FprintArray(stdout, res)
		return nil
	}

	if *batch > 0 {
		seeds := make([]int64, *batch)
		for i := range seeds {
			seeds[i] = *seed + int64(i)
		}
		b := cagc.RunBatch(cagc.SeedBatch(w, s, *policy, p, seeds), *workers)
		reportCache(stderr)
		if err := b.Err(); err != nil {
			return fmt.Errorf("batch: %d completed, %d failed, %d skipped; first failure: %w",
				b.Completed(), b.Failed(), b.Skipped(), err)
		}
		if *asJSON {
			// One JSON document per run, in seed order: deterministic at
			// any worker count, each stamped with its member's canonical
			// config key — the prefix property CI relies on (a batch's
			// documents are exactly the single runs' documents). The
			// aggregate report carries wall-clock, so it goes to stderr.
			for i, res := range b.Results {
				q := p
				q.Seed = seeds[i]
				key := cagc.ConfigKey(w, s, *policy, q)
				if err := cagc.WriteJSONKey(stdout, res, key); err != nil {
					return err
				}
			}
			fmt.Fprintf(stderr, "batch: %d runs, %d workers, wall %v, aggregate %.0f events/s\n",
				*batch, b.Workers, b.Wall.Round(time.Millisecond), b.AggregateEventsPerSec())
			return nil
		}
		fmt.Fprintf(stdout, "batch: %d runs x %s x %s x %s, %d workers\n", *batch, w, s, *policy, b.Workers)
		fmt.Fprintf(stdout, "wall %v  events %d  aggregate %.0f events/s  (%.0f events/s/worker)\n",
			b.Wall.Round(time.Millisecond), b.Events,
			b.AggregateEventsPerSec(), b.AggregateEventsPerSec()/float64(b.Workers))
		return nil
	}

	if *replayPath != "" {
		var stats cagc.TraceStreamStats
		res, err := cagc.ReplayFile(*replayPath, w, s, *policy, p, cagc.ReplayFileOptions{
			Format:        *replayFmt,
			TimeScale:     *timeScale,
			ChunkRequests: *chunk,
			SyncDecode:    *syncDecode,
			Stats:         &stats,
		})
		if err != nil {
			return err
		}
		reportCache(stderr)
		// Ingestion counters are wall-clock facts: stderr, so stdout
		// stays byte-identical across chunk sizes and decode modes.
		fmt.Fprintf(stderr, "cagcsim: ingest: %d requests in %d chunks, %d stalls (ratio %.3f), peak reader %d bytes\n",
			stats.Requests, stats.Chunks, stats.Stalls, stats.StallRatio(), stats.PeakLiveBytes)
		if err := exportTrace(stderr, rec, *traceOut, *traceSum,
			fmt.Sprintf("replay %s x %s x %s", *replayPath, s, *policy)); err != nil {
			return err
		}
		if *asJSON {
			// File replays have no canonical config key (the identity
			// would have to hash the file); the document simply omits it.
			return cagc.WriteJSON(stdout, res)
		}
		cagc.FprintResult(stdout, res)
		return nil
	}

	if len(tenantSpecs) > 0 {
		res, err := cagc.RunScenario(s, *policy, p, cagc.ScenarioParams{
			Tenants:       tenantSpecs,
			DiurnalPeriod: cagc.Time(*diurnalMs * float64(cagc.Millisecond)),
			DiurnalAmp:    *diurnalAmp,
			SLOUs:         *sloUs,
			ChunkRequests: *chunk,
			SyncDecode:    *syncDecode,
		})
		if err != nil {
			return err
		}
		reportCache(stderr)
		if err := exportTrace(stderr, rec, *traceOut, *traceSum,
			fmt.Sprintf("%s x %s x %s", cagc.ScenarioLabel(tenantSpecs), s, *policy)); err != nil {
			return err
		}
		if *asJSON {
			return cagc.WriteJSON(stdout, res)
		}
		cagc.FprintResult(stdout, res)
		return nil
	}

	res, err := cagc.Run(w, s, *policy, p)
	if err != nil {
		return err
	}
	reportCache(stderr)
	if err := exportTrace(stderr, rec, *traceOut, *traceSum,
		fmt.Sprintf("%s x %s x %s", w, s, *policy)); err != nil {
		return err
	}
	if *asJSON {
		// Stamped with the run's canonical config key — the identity the
		// result cache and the serving layer key on.
		return cagc.WriteJSONKey(stdout, res, cagc.ConfigKey(w, s, *policy, p))
	}
	fmt.Fprintln(stdout, cagc.TableIString(p))
	fmt.Fprintln(stdout)
	cagc.FprintResult(stdout, res)
	return nil
}

// validateSchedFlags rejects explicitly-set scheduling flags outside
// their domain. 0 stays the "default" sentinel for -fleet-shard (64),
// -fleet-topk (10), and -workers (one per core), so only values the
// user actually typed can fail.
func validateSchedFlags(set map[string]bool, fleetShard, workers, fleetTopK int) error {
	if set["fleet-shard"] && fleetShard <= 0 {
		return fmt.Errorf("-fleet-shard %d: shard size must be positive", fleetShard)
	}
	if set["workers"] && workers < 0 {
		return fmt.Errorf("-workers %d: worker count cannot be negative (0 = one per core)", workers)
	}
	if set["fleet-topk"] && fleetTopK < 0 {
		return fmt.Errorf("-fleet-topk %d: straggler count cannot be negative (0 = default 10)", fleetTopK)
	}
	return nil
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
			if err != nil || r <= 0 {
				return nil, fmt.Errorf("-tenants: bad rate in %q", entry)
			}
			rate, entry = r, entry[:i]
		}
		t := cagc.TenantSpec{Rate: rate}
		if w, err := findWorkload(entry); err == nil {
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

func findWorkload(name string) (cagc.Workload, error) {
	for _, w := range cagc.Workloads {
		if strings.EqualFold(string(w), name) {
			return w, nil
		}
	}
	return "", fmt.Errorf("unknown workload %q (want one of %v)", name, cagc.Workloads)
}
