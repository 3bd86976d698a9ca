// Command figures regenerates every table and figure of the paper's
// evaluation section and prints the same rows/series the paper reports.
//
// Usage:
//
//	figures                 # everything
//	figures -exp fig9       # one experiment
//	figures -exp verify     # audit every reproduced claim
//	figures -requests 50000 -device 134217728
//	figures -exp fig11 -trace fig11.json -trace-summary
//	figures -exp fig11 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments: tableI, tableII, fig2, fig6, fig8, fig9, fig10, fig11,
// fig12, fig13, throughput, array, ablations, verify, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cagc"
	"cagc/internal/profiling"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		exp       = flag.String("exp", "all", "experiment id (see command doc; 'all' runs everything)")
		device    = flag.Int64("device", 16<<20, "physical flash bytes")
		requests  = flag.Int("requests", 20000, "measured requests per run")
		seed      = flag.Int64("seed", 1, "workload seed")
		util      = flag.Float64("util", 0.55, "logical space as a fraction of user capacity")
		cold      = flag.Bool("coldstart", false, "bypass the warm-state snapshot cache (build and precondition every run from scratch)")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON of all runs to this file (load in chrome://tracing or Perfetto)")
		traceSum  = flag.Bool("trace-summary", false, "print the trace summary (per-phase GC attribution, fingerprint/erase overlap, latency percentiles) to stderr")
		traceLast = flag.Int("trace-last", 0, "flight-recorder mode: keep only the last N trace events (0 = unbounded)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *traceLast > 0 && *traceOut == "" && !*traceSum {
		return fmt.Errorf("-trace-last needs -trace or -trace-summary to report into")
	}

	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stop(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	p := cagc.Params{DeviceBytes: *device, Requests: *requests, Seed: *seed, Utilization: *util, ColdStart: *cold}
	// One recorder spans every run of the experiment. Runs that fan out
	// in parallel interleave their events by goroutine schedule; trace a
	// single-run experiment (or cagcsim) when determinism matters.
	var rec *cagc.TraceRecorder
	if *traceOut != "" || *traceSum || *traceLast > 0 {
		if *traceLast > 0 {
			rec = cagc.NewFlightRecorder(*traceLast)
		} else {
			rec = cagc.NewTraceRecorder()
		}
	}
	p.Trace = rec
	defer func() {
		st := cagc.WarmCacheStats()
		if st.Hits+st.Misses > 0 {
			fmt.Fprintf(os.Stderr, "figures: warm-state cache: %d hits, %d misses, %d evictions, %d/%d snapshots\n",
				st.Hits, st.Misses, st.Evictions, st.Snapshots, st.Capacity)
		}
	}()

	runErr := func() error {
		if strings.EqualFold(*exp, "all") {
			return cagc.RunAllExperiments(p, os.Stdout)
		}
		return cagc.RunExperiment(strings.ToLower(*exp), p, os.Stdout)
	}()
	if runErr != nil {
		return runErr
	}
	if rec != nil {
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
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
			fmt.Fprintf(os.Stderr, "figures: wrote %s (%d events, %d dropped)\n",
				*traceOut, rec.Len(), rec.Dropped())
		}
		if *traceSum {
			if err := cagc.SummarizeTrace(rec).WriteText(os.Stderr, *exp); err != nil {
				return err
			}
		}
	}
	return nil
}
