package cagc

// Text renderers for the experiment harness: each report prints the
// same rows or series the paper's figure reports, in plain ASCII for
// terminals and for EXPERIMENTS.md, projected from one result set.

import (
	"fmt"
	"io"

	"cagc/internal/metrics"
)

// printTableI renders Table I.
func printTableI(w io.Writer, p Params, _ runs) error {
	fmt.Fprintln(w, "Table I — SSD configuration")
	fmt.Fprintln(w, tableIString(p))
	return nil
}

// printTableII renders the workload-calibration check.
func printTableII(w io.Writer, p Params, _ runs) error {
	rows, err := tableII(p)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table II — workload characteristics, generated vs published")
	fmt.Fprintf(w, "%-8s %16s %16s %18s\n", "workload", "write% (got/want)", "dedup% (got/want)", "avg KB (got/want)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8.1f/%-7.1f %8.1f/%-7.1f %9.1f/%-8.1f\n",
			r.Workload,
			r.GotWriteRatio*100, r.WantWriteRatio*100,
			r.GotDedupRatio*100, r.WantDedupRatio*100,
			r.GotAvgReqKB, r.WantAvgReqKB)
	}
	return nil
}

// printFigure2 renders the inline-dedup motivation comparison.
func printFigure2(w io.Writer, p Params, rs runs) error {
	fmt.Fprintln(w, "Figure 2 — normalized mean response time (Baseline = 1.00)")
	fmt.Fprintf(w, "%-8s %12s %12s %11s\n", "workload", "baseline µs", "inline µs", "normalized")
	for _, r := range figure2(p, rs) {
		fmt.Fprintf(w, "%-8s %12.1f %12.1f %10.2fx\n",
			r.Workload, r.BaselineMean, r.InlineMean, r.Normalized)
	}
	return nil
}

// printFigure6 renders the invalid-page reference-count distribution,
// by trace analysis and as simulated.
func printFigure6(w io.Writer, p Params, rs runs) error {
	rows, err := figure6Analysis(p)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "(trace analysis, the paper's methodology)")
	fprintFigure6(w, rows)
	fmt.Fprintln(w, "(simulated, Inline-Dedupe FTL)")
	fprintFigure6(w, figure6(p, rs))
	return nil
}

func fprintFigure6(w io.Writer, rows []figure6Row) {
	fmt.Fprintln(w, "Figure 6 — invalid pages by reference count (paper: >80% from refcount 1)")
	fmt.Fprintf(w, "%-8s %8s %8s %8s %8s %10s\n", "workload",
		metrics.BucketLabels[0], metrics.BucketLabels[1],
		metrics.BucketLabels[2], metrics.BucketLabels[3], "samples")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %10d\n",
			r.Workload, r.Shares[0]*100, r.Shares[1]*100, r.Shares[2]*100, r.Shares[3]*100, r.Total)
	}
}

// printFigure8 renders the worked example.
func printFigure8(w io.Writer, _ Params, _ runs) error {
	base, cg, err := Figure8()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 8 — worked example: write 4 files, GC, delete files 2 and 4")
	fmt.Fprintf(w, "%-12s %9s %8s %8s %8s %8s\n",
		"scheme", "GC writes", "dropped", "erases", "valid", "contents")
	for _, r := range []WorkedResult{base, cg} {
		fmt.Fprintf(w, "%-12s %9d %8d %8d %8d %8d\n",
			r.Scheme, r.MigrationWrites, r.GCDupDropped, r.BlocksErased, r.ValidAfter, r.LiveContents)
	}
	fmt.Fprintln(w, "(paper: traditional 12 GC page writes vs CAGC 7, 5 redundant copies dropped)")
	return nil
}

// printFigure9And10 renders the erase/migration comparison.
func printFigure9And10(w io.Writer, p Params, rs runs) error {
	rows := figure9And10(p, rs)
	fmt.Fprintln(w, "Figure 9 — flash blocks erased   (paper reductions: Homes 23.3%, Web-vm 48.3%, Mail 86.6%)")
	fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "workload", "baseline", "CAGC", "reduction")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %10d %10d %9.1f%%\n",
			r.Workload, r.Baseline.FTL.BlocksErased, r.CAGC.FTL.BlocksErased, r.ErasedReduction*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 10 — data pages migrated during GC   (paper: 35.1%, 47.9%, 85.9%)")
	fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "workload", "baseline", "CAGC", "reduction")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %10d %10d %9.1f%%\n",
			r.Workload, r.Baseline.FTL.PagesMigrated, r.CAGC.FTL.PagesMigrated, r.MigratedReduction*100)
	}
	return nil
}

// printFigure11 renders the during-GC response-time comparison.
func printFigure11(w io.Writer, p Params, rs runs) error {
	fmt.Fprintln(w, "Figure 11 — normalized mean response time under GC activity (paper CAGC reductions: 33.6%, 29.6%, 70.1%)")
	fmt.Fprintf(w, "%-8s %14s %10s %8s %12s\n", "workload", "Inline-Dedupe", "Baseline", "CAGC", "CAGC saves")
	for _, r := range figure11(p, rs) {
		fmt.Fprintf(w, "%-8s %13.2fx %9.2fx %7.2fx %11.1f%%\n",
			r.Workload, r.InlineNorm, r.BaselineNorm, r.CAGCNorm, r.CAGCReduction*100)
	}
	return nil
}

// printFigure12 renders the CDFs at a fixed set of quantile probes.
func printFigure12(w io.Writer, p Params, rs runs) error {
	fmt.Fprintln(w, "Figure 12 — response-time CDF, Baseline vs CAGC")
	probes := []float64{0.50, 0.80, 0.90, 0.95, 0.99, 0.999}
	for _, s := range figure12(p, rs) {
		fmt.Fprintf(w, "%s:\n", s.Workload)
		fmt.Fprintf(w, "  %-10s", "quantile")
		for _, p := range probes {
			fmt.Fprintf(w, " %9.1f%%", p*100)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  %-10s", "baseline")
		for _, p := range probes {
			fmt.Fprintf(w, " %10s", quantileOf(s.Baseline, p))
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  %-10s", "CAGC")
		for _, p := range probes {
			fmt.Fprintf(w, " %10s", quantileOf(s.CAGC, p))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// quantileOf reads a quantile off a CDF point series.
func quantileOf(cdf []metrics.CDFPoint, p float64) string {
	for _, pt := range cdf {
		if pt.F >= p {
			return pt.X.String()
		}
	}
	if n := len(cdf); n > 0 {
		return cdf[n-1].X.String()
	}
	return "-"
}

// printFigure13 renders the victim-policy sensitivity study.
func printFigure13(w io.Writer, p Params, rs runs) error {
	fmt.Fprintln(w, "Figure 13 — CAGC reduction vs Baseline under different victim-selection policies")
	fmt.Fprintf(w, "%-8s %-13s %10s %10s %10s\n",
		"workload", "policy", "erased", "migrated", "resp(GC)")
	for _, c := range figure13(p, rs) {
		fmt.Fprintf(w, "%-8s %-13s %9.1f%% %9.1f%% %9.1f%%\n",
			c.Workload, c.Policy, c.ErasedReduction*100, c.MigratedReduction*100, c.ResponseReduction*100)
	}
	return nil
}

// printTenants renders the consolidation mix under Baseline and CAGC.
func printTenants(w io.Writer, p Params, _ runs) error {
	fmt.Fprintln(w, "Consolidated tenants (Mail + Web-vm halves, merged arrivals)")
	fmt.Fprintf(w, "%-10s %10s %10s %10s %8s\n", "scheme", "mean µs", "erased", "migrated", "WA")
	for _, s := range []Scheme{Baseline, CAGC} {
		r, err := mixedTenants(p, s)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10v %10.1f %10d %10d %8.3f\n", s,
			r.MeanLatency(), r.FTL.BlocksErased, r.FTL.PagesMigrated, r.FTL.WriteAmplification())
	}
	return nil
}

// FprintResult renders one run in full (the cagcsim CLI report).
func FprintResult(w io.Writer, r *Result) {
	fmt.Fprintf(w, "scheme      %s\nworkload    %s\npolicy      %s\n", r.Scheme, r.Workload, r.Policy)
	fmt.Fprintf(w, "requests    %d over %v\n", r.Requests, r.Duration)
	fmt.Fprintf(w, "latency     mean %.1fµs  p50 %v  p90 %v  p99 %v  p99.9 %v  max %v\n",
		r.MeanLatency(),
		r.Latency.Percentile(0.50), r.Latency.Percentile(0.90),
		r.Latency.Percentile(0.99), r.Latency.Percentile(0.999), r.Latency.Max())
	fmt.Fprintf(w, "  reads     mean %.1fµs (n=%d)\n", r.ReadLatency.Mean()/1000, r.ReadLatency.Count())
	fmt.Fprintf(w, "  writes    mean %.1fµs (n=%d)\n", r.WriteLatency.Mean()/1000, r.WriteLatency.Count())
	if r.GCRequests > 0 {
		fmt.Fprintf(w, "  during GC mean %.1fµs (n=%d)\n", r.GCLatency.Mean()/1000, r.GCRequests)
	}
	s := r.FTL
	fmt.Fprintf(w, "user pages  R %d  W %d  T %d\n", s.UserReadPages, s.UserWritePages, s.UserTrimPages)
	fmt.Fprintf(w, "programs    user %d  migrated %d  promoted %d  (WA %.3f)\n",
		s.UserPrograms, s.PagesMigrated, s.Promotions, s.WriteAmplification())
	fmt.Fprintf(w, "gc          invocations %d  idle windows %d  blocks erased %d  dup dropped %d  futile %d\n",
		s.GCInvocations, s.IdleGCWindows, s.BlocksErased, s.GCDupDropped, s.FutileGC)
	fmt.Fprintf(w, "dedupe      inline hits %d  hash ops %d\n", s.InlineDupHits, s.HashOps)
	fmt.Fprintf(w, "device      free %.1f%%  erase spread %d\n", r.FreeFraction*100, r.EraseSpread)
	if r.Regions.ColdBlocks > 0 {
		fmt.Fprintf(w, "regions     hot %d blocks (%d valid)  cold %d blocks (%d valid, %.1f%% of valid)\n",
			r.Regions.HotBlocks, r.Regions.HotValid,
			r.Regions.ColdBlocks, r.Regions.ColdValid, r.Regions.ColdShare()*100)
	}
	if total := r.RefDist[0] + r.RefDist[1] + r.RefDist[2] + r.RefDist[3]; total > 0 {
		sh := r.RefShares()
		fmt.Fprintf(w, "invalidated by refcount  1: %.1f%%  2: %.1f%%  3: %.1f%%  >3: %.1f%%\n",
			sh[0]*100, sh[1]*100, sh[2]*100, sh[3]*100)
	}
	for i := range r.Tenants {
		t := &r.Tenants[i]
		fmt.Fprintf(w, "tenant %-12s reqs %-7d p50 %v  p99 %v  p99.9 %v",
			t.Name, t.Requests,
			t.Latency.Percentile(0.50), t.Latency.Percentile(0.99), t.Latency.Percentile(0.999))
		if t.SLO > 0 {
			fmt.Fprintf(w, "  SLO %v violated %d", t.SLO, t.Violations)
		}
		fmt.Fprintln(w)
	}
}
