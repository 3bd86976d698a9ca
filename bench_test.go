package cagc

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// bench regenerates its figure's data and reports the headline numbers
// as custom metrics, so `go test -bench=. -benchmem` reproduces the
// whole evaluation:
//
//	go test -bench=Figure9 -benchmem .
//
// Benches run a scaled-down device (16 MiB, 4000 requests) so a full
// sweep completes in seconds; cmd/figures runs the same harness at the
// default (larger) scale. Figure benches go through the warm-state
// snapshot cache, exactly as cmd/figures does.

import (
	"strconv"
	"testing"

	"cagc/internal/ftl"
)

func benchParams() Params {
	return Params{DeviceBytes: 16 << 20, Requests: 6000, Seed: 1}
}

// benchRuns regenerates, b.N times, the cells experiment id reads.
func benchRuns(b *testing.B, id string) runs {
	b.Helper()
	var rs runs
	for i := 0; i < b.N; i++ {
		rs = runsOf(b, benchParams(), id)
	}
	return rs
}

// benchCells runs items b.N times in one batch each.
func benchCells(b *testing.B, items ...BatchItem) []*Result {
	b.Helper()
	var res []*Result
	for i := 0; i < b.N; i++ {
		res = runCells(b, items...)
	}
	return res
}

func BenchmarkTableII(b *testing.B) {
	var rows []tableIIRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = tableII(Params{Requests: 20000})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.GotDedupRatio*100, "dedup%/"+string(r.Workload))
	}
}

func BenchmarkFig2InlineDedupPenalty(b *testing.B) {
	for _, r := range figure2(benchParams(), benchRuns(b, "fig2")) {
		b.ReportMetric(r.Normalized, "x-norm/"+string(r.Workload))
	}
}

func BenchmarkFig6RefcountDist(b *testing.B) {
	for _, r := range figure6(benchParams(), benchRuns(b, "fig6")) {
		b.ReportMetric(r.Shares[0]*100, "ref1%/"+string(r.Workload))
	}
}

func BenchmarkFig8WorkedExample(b *testing.B) {
	var base, cg WorkedResult
	var err error
	for i := 0; i < b.N; i++ {
		base, cg, err = Figure8()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(base.MigrationWrites), "gcwrites/baseline")
	b.ReportMetric(float64(cg.MigrationWrites), "gcwrites/cagc")
}

func BenchmarkFig9BlocksErased(b *testing.B) {
	for _, r := range figure9And10(benchParams(), benchRuns(b, "fig9")) {
		b.ReportMetric(r.ErasedReduction*100, "erased-red%/"+string(r.Workload))
	}
}

func BenchmarkFig10PagesMigrated(b *testing.B) {
	for _, r := range figure9And10(benchParams(), benchRuns(b, "fig10")) {
		b.ReportMetric(r.MigratedReduction*100, "migr-red%/"+string(r.Workload))
	}
}

func BenchmarkFig11ResponseTimes(b *testing.B) {
	for _, r := range figure11(benchParams(), benchRuns(b, "fig11")) {
		b.ReportMetric(r.CAGCReduction*100, "cagc-save%/"+string(r.Workload))
		b.ReportMetric(r.InlineNorm, "inline-x/"+string(r.Workload))
	}
}

func BenchmarkFig12LatencyCDF(b *testing.B) {
	for _, s := range figure12(benchParams(), benchRuns(b, "fig12")) {
		b.ReportMetric(float64(len(s.Baseline)+len(s.CAGC)), "cdfpts/"+string(s.Workload))
	}
}

func BenchmarkFig13PolicySensitivity(b *testing.B) {
	for _, c := range figure13(benchParams(), benchRuns(b, "fig13")) {
		if c.Workload == Mail {
			b.ReportMetric(c.ErasedReduction*100, "erased-red%/"+c.Policy)
		}
	}
}

// Ablations: each sweeps one knob of Mail under greedy selection.

// mailSweep declares Mail under s at benchParams with set applied for
// every point.
func mailSweep[T any](s Scheme, points []T, set func(p *Params, v T)) []BatchItem {
	items := make([]BatchItem, len(points))
	for i, v := range points {
		p := benchParams()
		set(&p, v)
		items[i] = BatchItem{Mail, s, "greedy", p}
	}
	return items
}

func BenchmarkAblateThreshold(b *testing.B) {
	thresholds := []int{1, 2, 4}
	res := benchCells(b, mailSweep(CAGC, thresholds, func(p *Params, t int) { p.RefThreshold = t })...)
	for i, r := range res {
		b.ReportMetric(float64(r.FTL.Promotions), "promotions/T="+strconv.Itoa(thresholds[i]))
	}
}

func BenchmarkAblatePlacement(b *testing.B) {
	var full, dedupOnly *Result
	var err error
	for i := 0; i < b.N; i++ {
		if full, err = Run(Mail, CAGC, "greedy", benchParams()); err != nil {
			b.Fatal(err)
		}
		if dedupOnly, err = cagcVariant(benchParams(), func(o *ftl.Options) { o.HotCold = false }); err != nil {
			b.Fatal(err)
		}
	}
	delta := float64(dedupOnly.FTL.BlocksErased)/float64(full.FTL.BlocksErased) - 1
	b.ReportMetric(delta*100, "noplace-extra-erase%")
}

func BenchmarkAblateOverlap(b *testing.B) {
	var over, serial *Result
	var err error
	for i := 0; i < b.N; i++ {
		if over, err = Run(Mail, CAGC, "greedy", benchParams()); err != nil {
			b.Fatal(err)
		}
		if serial, err = cagcVariant(benchParams(), func(o *ftl.Options) { o.HashAt = ftl.HashAtMigrateSerial }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gcPeriodMean(serial)/gcPeriodMean(over), "serial-slowdown-x")
}

func BenchmarkAblateUtilization(b *testing.B) {
	utils := []float64{0.45, 0.55, 0.65}
	set := func(p *Params, u float64) { p.Utilization = u }
	res := benchCells(b, append(mailSweep(Baseline, utils, set), mailSweep(CAGC, utils, set)...)...)
	for i, u := range utils {
		red := reduction(float64(res[i].FTL.BlocksErased), float64(res[len(utils)+i].FTL.BlocksErased))
		b.ReportMetric(red*100, "erased-red%/u="+strconv.FormatFloat(u, 'f', 2, 64))
	}
}

func BenchmarkAblateWriteBuffer(b *testing.B) {
	buffered := benchParams()
	buffered.BufferPages = 64
	res := benchCells(b, BatchItem{Homes, Baseline, "greedy", buffered}, BatchItem{Homes, CAGC, "greedy", benchParams()})
	b.ReportMetric(float64(res[0].FTL.UserPrograms), "programs/buffered")
	b.ReportMetric(float64(res[1].FTL.UserPrograms), "programs/cagc")
}

func BenchmarkAblateWearLevel(b *testing.B) {
	res := benchCells(b, mailSweep(CAGC, []int{0, 3}, func(p *Params, t int) { p.WearLevelThreshold = t })...)
	b.ReportMetric(float64(res[0].EraseSpread), "spread/off")
	b.ReportMetric(float64(res[1].EraseSpread), "spread/on")
}

func BenchmarkAblateIndexCapacity(b *testing.B) {
	caps := []int{16, 256, 0}
	res := benchCells(b, mailSweep(CAGC, caps, func(p *Params, c int) { p.IndexCapacity = c })...)
	for i, r := range res {
		b.ReportMetric(float64(r.FTL.GCDupDropped), "dropped/cap="+strconv.Itoa(caps[i]))
	}
}

func BenchmarkThroughputCurve(b *testing.B) {
	depths := []int{1, 4, 16}
	set := func(p *Params, qd int) { p.QueueDepth = qd }
	res := benchCells(b, append(mailSweep(Baseline, depths, set), mailSweep(CAGC, depths, set)...)...)
	for i, qd := range depths {
		b.ReportMetric(res[len(depths)+i].IOPS()/res[i].IOPS(), "cagc-x/qd="+strconv.Itoa(qd))
	}
}

func BenchmarkAblateMappingCache(b *testing.B) {
	entries := []int{512, 4096, 0}
	res := benchCells(b, mailSweep(CAGC, entries, func(p *Params, n int) { p.MappingCache = n })...)
	for i, r := range res {
		b.ReportMetric(r.MeanLatency(), "mean-us/cmt="+strconv.Itoa(entries[i]))
	}
}

func BenchmarkArrayStudy(b *testing.B) {
	schemes := []Scheme{Baseline, CAGC}
	var p99 [2][2]Time // [scheme][steer]
	for i := 0; i < b.N; i++ {
		for si, s := range schemes {
			for steer := range p99[si] {
				r, err := RunArray(Mail, s, benchParams(),
					ArrayParams{Mode: "raid1", Members: 2, Stagger: true, Steer: steer == 1})
				if err != nil {
					b.Fatal(err)
				}
				p99[si][steer] = r.ReadLatency.Percentile(0.99)
			}
		}
	}
	for si, s := range schemes {
		b.ReportMetric((1-float64(p99[si][1])/float64(p99[si][0]))*100, "steer-p99-save%/"+s.String())
	}
}
