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
)

func benchParams() Params {
	return Params{DeviceBytes: 16 << 20, Requests: 6000, Seed: 1}
}

func BenchmarkTableII(b *testing.B) {
	var rows []TableIIRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = TableII(Params{Requests: 20000})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.GotDedupRatio*100, "dedup%/"+string(r.Workload))
	}
}

func BenchmarkFig2InlineDedupPenalty(b *testing.B) {
	var rows []Figure2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = Figure2(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Normalized, "x-norm/"+string(r.Workload))
	}
}

func BenchmarkFig6RefcountDist(b *testing.B) {
	var rows []Figure6Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = Figure6(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
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
	rows := benchCompare(b)
	for _, r := range rows {
		b.ReportMetric(r.ErasedReduction*100, "erased-red%/"+string(r.Workload))
	}
}

func BenchmarkFig10PagesMigrated(b *testing.B) {
	rows := benchCompare(b)
	for _, r := range rows {
		b.ReportMetric(r.MigratedReduction*100, "migr-red%/"+string(r.Workload))
	}
}

func benchCompare(b *testing.B) []CompareRow {
	b.Helper()
	var rows []CompareRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = Figure9And10(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	return rows
}

func BenchmarkFig11ResponseTimes(b *testing.B) {
	var rows []Figure11Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = Figure11(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.CAGCReduction*100, "cagc-save%/"+string(r.Workload))
		b.ReportMetric(r.InlineNorm, "inline-x/"+string(r.Workload))
	}
}

func BenchmarkFig12LatencyCDF(b *testing.B) {
	var series []Figure12Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = Figure12(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		b.ReportMetric(float64(len(s.Baseline)+len(s.CAGC)), "cdfpts/"+string(s.Workload))
	}
}

func BenchmarkFig13PolicySensitivity(b *testing.B) {
	var cells []Figure13Cell
	var err error
	for i := 0; i < b.N; i++ {
		cells, err = Figure13(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		if c.Workload == Mail {
			b.ReportMetric(c.ErasedReduction*100, "erased-red%/"+c.Policy)
		}
	}
}

// Ablations.

func BenchmarkAblateThreshold(b *testing.B) {
	var pts []ThresholdPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = AblateThreshold(Mail, []int{1, 2, 4}, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		b.ReportMetric(float64(pt.Result.FTL.Promotions), "promotions/T="+strconv.Itoa(pt.Threshold))
	}
}

func BenchmarkAblatePlacement(b *testing.B) {
	var a *PlacementAblation
	var err error
	for i := 0; i < b.N; i++ {
		a, err = AblatePlacement(Mail, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(a.ErasedDelta*100, "noplace-extra-erase%")
}

func BenchmarkAblateOverlap(b *testing.B) {
	var a *OverlapAblation
	var err error
	for i := 0; i < b.N; i++ {
		a, err = AblateOverlap(Mail, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(a.GCPeriodSlowdown, "serial-slowdown-x")
}

func BenchmarkAblateUtilization(b *testing.B) {
	var pts []UtilizationPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = AblateUtilization(Mail, []float64{0.45, 0.55, 0.65}, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		red := reduction(float64(pt.Baseline.FTL.BlocksErased), float64(pt.CAGC.FTL.BlocksErased))
		b.ReportMetric(red*100, "erased-red%/u="+strconv.FormatFloat(pt.Utilization, 'f', 2, 64))
	}
}

func BenchmarkAblateWriteBuffer(b *testing.B) {
	var pts []BufferPoint
	var ref *Result
	var err error
	for i := 0; i < b.N; i++ {
		pts, ref, err = AblateWriteBuffer(Homes, []int{64}, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pts[0].Baseline.FTL.UserPrograms), "programs/buffered")
	b.ReportMetric(float64(ref.FTL.UserPrograms), "programs/cagc")
}

func BenchmarkAblateWearLevel(b *testing.B) {
	var a *WearLevelAblation
	var err error
	for i := 0; i < b.N; i++ {
		a, err = AblateWearLevel(Mail, 3, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.Off.EraseSpread), "spread/off")
	b.ReportMetric(float64(a.On.EraseSpread), "spread/on")
}

func BenchmarkAblateIndexCapacity(b *testing.B) {
	var pts []IndexCapacityPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = AblateIndexCapacity(Mail, []int{16, 256, 0}, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		b.ReportMetric(float64(pt.Result.FTL.GCDupDropped), "dropped/cap="+strconv.Itoa(pt.Capacity))
	}
}

func BenchmarkThroughputCurve(b *testing.B) {
	var pts []ThroughputPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = ThroughputCurve(Mail, []int{1, 4, 16}, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		b.ReportMetric(pt.CAGC.IOPS()/pt.Baseline.IOPS(), "cagc-x/qd="+strconv.Itoa(pt.QueueDepth))
	}
}

func BenchmarkAblateMappingCache(b *testing.B) {
	var pts []MapCachePoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = AblateMappingCache(Mail, []int{512, 4096, 0}, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		b.ReportMetric(pt.Result.MeanLatency(), "mean-us/cmt="+strconv.Itoa(pt.Entries))
	}
}

func BenchmarkArrayStudy(b *testing.B) {
	var rows []ArrayStudyRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = ArrayStudy(Mail, []Scheme{Baseline, CAGC}, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.P99ReadImprovement*100, "steer-p99-save%/"+r.Scheme.String())
	}
}
