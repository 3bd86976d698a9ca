package cagc

// The extensions beyond the paper's figures: the closed-loop saturation
// sweep and the ablations of the design choices DESIGN.md calls out,
// each isolating one mechanism of CAGC on the Mail workload. Every
// sweep point is a Scheme cell with one Params knob moved; the two
// ablations that change the FTL composition itself (placement, overlap)
// run their variant directly.

import (
	"fmt"
	"io"

	"cagc/internal/ftl"
)

// The sweeps' points.
var (
	throughputDepths  = []int{1, 2, 4, 8, 16}
	ablationThresh    = []int{1, 2, 4}
	ablationUtils     = []float64{0.45, 0.55, 0.65}
	ablationBuffers   = []int{16, 64, 256}
	ablationIndexCap  = []int{16, 256, 0}
	ablationMapCache  = []int{512, 4096, 0}
	ablationWearLevel = 3 // static wear-leveling threshold, in erase counts
)

// cagcVariant runs Mail under CAGC with one edit to its FTL
// composition: the ablations' runs that are not a Scheme cell.
func cagcVariant(p Params, edit func(o *ftl.Options)) (*Result, error) {
	o := CAGC.Options()
	edit(&o)
	return runOptions(Mail, o, "greedy", p)
}

// throughputCells sweep closed-loop queue depth under Baseline and CAGC.
func throughputCells(p Params) []BatchItem {
	var items []BatchItem
	for _, qd := range throughputDepths {
		q := p
		q.QueueDepth = qd
		items = append(items, BatchItem{Mail, Baseline, "greedy", q}, BatchItem{Mail, CAGC, "greedy", q})
	}
	return items
}

// printThroughput renders saturation throughput (closed-loop IOPS) of
// Baseline and CAGC across queue depths — an extension beyond the
// paper's open-loop evaluation: does GC-time dedup also help when the
// host never lets the device idle?
func printThroughput(w io.Writer, p Params, rs runs) error {
	fmt.Fprintln(w, "Closed-loop saturation throughput (extension; Mail workload)")
	fmt.Fprintf(w, "%-6s %14s %14s %8s\n", "QD", "Baseline IOPS", "CAGC IOPS", "gain")
	for _, qd := range throughputDepths {
		q := p
		q.QueueDepth = qd
		base, cg := rs.get(Mail, Baseline, "greedy", q), rs.get(Mail, CAGC, "greedy", q)
		fmt.Fprintf(w, "%-6d %14.0f %14.0f %7.2fx\n", qd, base.IOPS(), cg.IOPS(), cg.IOPS()/base.IOPS())
	}
	return nil
}

// ablationCells are the Scheme cells of the ablation suite: plain CAGC
// and each sweep point.
func ablationCells(p Params) []BatchItem {
	items := []BatchItem{{Mail, CAGC, "greedy", p}}
	add := func(s Scheme, set func(q *Params)) {
		q := p
		set(&q)
		items = append(items, BatchItem{Mail, s, "greedy", q})
	}
	for _, t := range ablationThresh {
		add(CAGC, func(q *Params) { q.RefThreshold = t })
	}
	for _, u := range ablationUtils {
		add(Baseline, func(q *Params) { q.Utilization = u })
		add(CAGC, func(q *Params) { q.Utilization = u })
	}
	for _, n := range ablationBuffers {
		add(Baseline, func(q *Params) { q.BufferPages = n })
	}
	for _, c := range ablationIndexCap {
		add(CAGC, func(q *Params) { q.IndexCapacity = c })
	}
	for _, n := range ablationMapCache {
		add(CAGC, func(q *Params) { q.MappingCache = n })
	}
	add(CAGC, func(q *Params) { q.WearLevelThreshold = ablationWearLevel })
	return items
}

// printAblations renders the design-choice ablation suite.
func printAblations(w io.Writer, p Params, rs runs) error {
	at := func(s Scheme, set func(q *Params)) *Result {
		q := p
		set(&q)
		return rs.get(Mail, s, "greedy", q)
	}
	plain := rs.get(Mail, CAGC, "greedy", p)
	fmt.Fprintln(w, "Ablations — isolating CAGC's design choices (Mail workload)")

	// The paper's cold-region threshold is 1; higher values keep more
	// pages hot.
	fmt.Fprintln(w, "hot/cold threshold sweep:")
	fmt.Fprintf(w, "  %-10s %10s %10s %10s %10s\n", "threshold", "erased", "migrated", "promoted", "mean µs")
	for _, t := range ablationThresh {
		r := at(CAGC, func(q *Params) { q.RefThreshold = t })
		fmt.Fprintf(w, "  %-10d %10d %10d %10d %10.1f\n",
			t, r.FTL.BlocksErased, r.FTL.PagesMigrated, r.FTL.Promotions, r.MeanLatency())
	}

	// GC-dedup without hot/cold placement isolates the paper's second
	// prong.
	dedupOnly, err := cagcVariant(p, func(o *ftl.Options) { o.HotCold = false })
	if err != nil {
		return err
	}
	var delta float64
	if plain.FTL.BlocksErased > 0 {
		delta = float64(dedupOnly.FTL.BlocksErased)/float64(plain.FTL.BlocksErased) - 1
	}
	fmt.Fprintf(w, "placement: full CAGC erased %d; dedup-only erased %d (%+.1f%%)\n",
		plain.FTL.BlocksErased, dedupOnly.FTL.BlocksErased, delta*100)

	// Strictly serial GC hashing isolates the paper's parallelization
	// claim: the ratio is serial/overlapped mean response during GC
	// periods (> 1 means the overlap helps).
	serial, err := cagcVariant(p, func(o *ftl.Options) { o.HashAt = ftl.HashAtMigrateSerial })
	if err != nil {
		return err
	}
	var slowdown float64
	if m := gcPeriodMean(plain); m > 0 {
		slowdown = gcPeriodMean(serial) / m
	}
	fmt.Fprintf(w, "overlap: serial GC dedup is %.2fx the overlapped response time under GC\n", slowdown)

	// Utilization stands in for an over-provisioning sweep: both pull
	// the same lever, free-space headroom.
	fmt.Fprintln(w, "space-pressure sweep:")
	fmt.Fprintf(w, "  %-12s %14s %10s\n", "utilization", "base erased", "CAGC erased")
	for _, u := range ablationUtils {
		set := func(q *Params) { q.Utilization = u }
		fmt.Fprintf(w, "  %-12.2f %14d %10d\n",
			u, at(Baseline, set).FTL.BlocksErased, at(CAGC, set).FTL.BlocksErased)
	}

	// The related-work lever, a controller RAM write buffer, applied to
	// the Baseline: how much of CAGC's write-traffic benefit does it
	// capture?
	fmt.Fprintln(w, "write-buffer alternative (Baseline + RAM buffer vs plain CAGC):")
	fmt.Fprintf(w, "  %-14s %10s %10s\n", "buffer pages", "programs", "erased")
	for _, n := range ablationBuffers {
		r := at(Baseline, func(q *Params) { q.BufferPages = n })
		fmt.Fprintf(w, "  %-14d %10d %10d\n", n, r.FTL.UserPrograms, r.FTL.BlocksErased)
	}
	fmt.Fprintf(w, "  %-14s %10d %10d\n", "CAGC (no buf)", plain.FTL.UserPrograms, plain.FTL.BlocksErased)

	// A smaller fingerprint cache forfeits dedup hits (CAFTL's
	// RAM/hit-rate trade-off).
	fmt.Fprintln(w, "fingerprint-index RAM bound (CAGC):")
	fmt.Fprintf(w, "  %-14s %10s %10s\n", "capacity", "dropped", "migrated")
	for _, c := range ablationIndexCap {
		r := at(CAGC, func(q *Params) { q.IndexCapacity = c })
		label := "unlimited"
		if c > 0 {
			label = fmt.Sprintf("%d", c)
		}
		fmt.Fprintf(w, "  %-14s %10d %10d\n", label, r.FTL.GCDupDropped, r.FTL.PagesMigrated)
	}

	// SRAM-limited mapping metadata; the paper assumes a fully
	// RAM-resident map.
	fmt.Fprintln(w, "DFTL-style mapping-cache size (CAGC):")
	fmt.Fprintf(w, "  %-14s %10s\n", "CMT entries", "mean µs")
	for _, n := range ablationMapCache {
		r := at(CAGC, func(q *Params) { q.MappingCache = n })
		label := "all in RAM"
		if n > 0 {
			label = fmt.Sprintf("%d", n)
		}
		fmt.Fprintf(w, "  %-14s %10.1f\n", label, r.MeanLatency())
	}

	// Cold-region pinning is exactly the pattern static wear leveling
	// exists to unpin.
	wl := at(CAGC, func(q *Params) { q.WearLevelThreshold = ablationWearLevel })
	fmt.Fprintf(w, "static wear leveling (threshold %d): spread %d -> %d, %d swaps\n",
		ablationWearLevel, plain.EraseSpread, wl.EraseSpread, wl.FTL.WLSwaps)
	return nil
}
