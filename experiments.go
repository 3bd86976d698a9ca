package cagc

// The per-figure experiment harness. Each figure of the paper's
// evaluation (Section IV) is a projection of one run matrix — the three
// workloads under every scheme and, for Figure 13, every victim policy.
// An experiment declares the cells it reads (see registry.go) and its
// rows are computed from the result set one RunBatch produced;
// EXPERIMENTS.md records paper-vs-measured for each.

import (
	"fmt"
	"slices"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/metrics"
	"cagc/internal/trace"
)

// grid declares every workload under each scheme and victim policy at
// p, workloads outermost.
func grid(p Params, schemes []Scheme, policies ...string) []BatchItem {
	var items []BatchItem
	for _, w := range Workloads {
		for _, pol := range policies {
			for _, s := range schemes {
				items = append(items, BatchItem{w, s, pol, p})
			}
		}
	}
	return items
}

// The cells each figure reads: fig9, fig10 and fig12 share compareCells.
func figure2Cells(p Params) []BatchItem  { return grid(p, []Scheme{Baseline, InlineDedupe}, "greedy") }
func figure6Cells(p Params) []BatchItem  { return grid(p, []Scheme{InlineDedupe}, "greedy") }
func compareCells(p Params) []BatchItem  { return grid(p, []Scheme{Baseline, CAGC}, "greedy") }
func figure11Cells(p Params) []BatchItem { return grid(p, Schemes, "greedy") }
func figure13Cells(p Params) []BatchItem {
	return grid(p, []Scheme{Baseline, CAGC}, figure13Policies...)
}

// verifyCells are the cells of every figure the checks read; the batch
// runs each distinct one once.
func verifyCells(p Params) []BatchItem {
	return slices.Concat(figure2Cells(p), figure6Cells(p), compareCells(p), figure11Cells(p), figure13Cells(p))
}

// figure2Row is one bar pair of Figure 2: the response-time cost of
// inline deduplication on an ultra-low-latency SSD.
type figure2Row struct {
	Workload     Workload
	BaselineMean float64 // µs
	InlineMean   float64 // µs
	Normalized   float64 // InlineMean / BaselineMean (paper: 1.2-1.7)
}

// figure2 compares Baseline and Inline-Dedupe mean response times on
// the three workloads (the paper's motivation experiment).
func figure2(p Params, rs runs) []figure2Row {
	rows := make([]figure2Row, len(Workloads))
	for i, w := range Workloads {
		row := figure2Row{
			Workload:     w,
			BaselineMean: rs.get(w, Baseline, "greedy", p).MeanLatency(),
			InlineMean:   rs.get(w, InlineDedupe, "greedy", p).MeanLatency(),
		}
		if row.BaselineMean > 0 {
			row.Normalized = row.InlineMean / row.BaselineMean
		}
		rows[i] = row
	}
	return rows
}

// figure6Row is one bar group of Figure 6: where invalid pages come
// from, bucketed by the page's reference count {1, 2, 3, >3}.
type figure6Row struct {
	Workload Workload
	Shares   [4]float64
	Total    uint64
}

// figure6 reads the reference-count distribution of invalidated pages.
// The Inline-Dedupe scheme is used because it maintains exact reference
// counts from the first write on (the paper computed this from the
// traces with full dedup visibility).
func figure6(p Params, rs runs) []figure6Row {
	rows := make([]figure6Row, len(Workloads))
	for i, w := range Workloads {
		res := rs.get(w, InlineDedupe, "greedy", p)
		var total uint64
		for _, c := range res.RefDist {
			total += c
		}
		rows[i] = figure6Row{Workload: w, Shares: res.RefShares(), Total: total}
	}
	return rows
}

// figure6Analysis computes the same distribution by pure trace
// analysis — the paper's own methodology (content accounting over the
// trace, no device model).
func figure6Analysis(p Params) ([]figure6Row, error) {
	p = p.withDefaults()
	rows := make([]figure6Row, 0, len(Workloads))
	for _, w := range Workloads {
		spec, err := trace.Preset(w, 1<<16, p.Requests, p.Seed)
		if err != nil {
			return nil, err
		}
		gen, err := trace.NewGenerator(spec)
		if err != nil {
			return nil, err
		}
		dist := trace.AnalyzeRefcounts(gen)
		rows = append(rows, figure6Row{Workload: w, Shares: dist.Shares(), Total: dist.Total()})
	}
	return rows, nil
}

// Figure8 runs the worked example (write four files, GC, delete two)
// under traditional GC and CAGC. Expected: 12 vs 7 valid-page writes
// during GC, with CAGC dropping 5 redundant copies.
func Figure8() (baseline, cagcRes WorkedResult, err error) {
	baseline, err = workedExample(Baseline)
	if err != nil {
		return
	}
	cagcRes, err = workedExample(CAGC)
	return
}

// figure8Files are the page contents of Figure 8's four files, one
// letter per page:
//
//	File 1: A B C D
//	File 2: E B F
//	File 3: D A B
//	File 4: B G
//
// Files map onto consecutive logical pages; deleting a file trims its
// pages.
var figure8Files = [][]byte{
	{'A', 'B', 'C', 'D'},
	{'E', 'B', 'F'},
	{'D', 'A', 'B'},
	{'B', 'G'},
}

// WorkedResult reports what one scheme did in the Figure-8 scenario.
type WorkedResult struct {
	Scheme          Scheme
	MigrationWrites uint64 // valid-page copies performed by GC (paper: 12 vs 7)
	GCDupDropped    uint64 // redundant copies eliminated (paper: 5 for CAGC)
	BlocksErased    uint64
	ValidAfter      int // live flash pages after the deletes (paper: 7 vs 4 contents)
	LiveContents    int // unique stored contents at the end
}

// workedExample runs the Figure-8 scenario under s on a tiny
// deterministic device (4-page blocks, like the figure) and returns what
// GC had to do. Traditional GC (no content awareness) must copy every
// valid page it migrates; CAGC eliminates the redundant copies during
// migration and packs shared pages, so it writes fewer pages and erases
// fewer blocks while freeing more space.
func workedExample(s Scheme) (WorkedResult, error) {
	dev, err := flash.NewDevice(flash.Config{
		// The figure draws 4-page blocks.
		Geometry: flash.Geometry{Channels: 1, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 12, PagesPerBlock: 4, PageSize: 4096},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.2,
	})
	if err != nil {
		return WorkedResult{}, err
	}
	f, err := ftl.New(dev, 16, s.Options())
	if err != nil {
		return WorkedResult{}, err
	}

	// Write the four files to consecutive logical pages.
	now := event.Time(0)
	lpn := uint64(0)
	fileStart := make([]uint64, len(figure8Files))
	for i, file := range figure8Files {
		fileStart[i] = lpn
		for _, letter := range file {
			end, err := f.Write(now, lpn, dedup.Of([]byte{letter}))
			if err != nil {
				return WorkedResult{}, fmt.Errorf("writing file %d: %w", i+1, err)
			}
			now = end
			lpn++
		}
	}

	// GC consolidates the freshly written blocks (the figure runs GC
	// between the writes and the deletes).
	before := f.Stats()
	if err := f.CollectAll(now); err != nil {
		return WorkedResult{}, err
	}
	after := f.Stats()

	// Delete files 2 and 4.
	for _, i := range []int{1, 3} {
		for p := range figure8Files[i] {
			end, err := f.Trim(now, fileStart[i]+uint64(p))
			if err != nil {
				return WorkedResult{}, fmt.Errorf("deleting file %d: %w", i+1, err)
			}
			now = end
		}
	}

	_, valid, _ := dev.CountStates()
	return WorkedResult{
		Scheme:          s,
		MigrationWrites: after.PagesMigrated - before.PagesMigrated,
		GCDupDropped:    after.GCDupDropped - before.GCDupDropped,
		BlocksErased:    after.BlocksErased - before.BlocksErased,
		ValidAfter:      valid,
		LiveContents:    f.LiveContents(),
	}, nil
}

// compareRow carries one workload's Baseline-vs-CAGC comparison: the
// data behind Figures 9 (blocks erased) and 10 (pages migrated).
type compareRow struct {
	Workload Workload
	Baseline *Result
	CAGC     *Result

	ErasedReduction   float64 // Figure 9 (paper: 23.3%, 48.3%, 86.6%)
	MigratedReduction float64 // Figure 10 (paper: 35.1%, 47.9%, 85.9%)
}

// figure9And10 compares Baseline and CAGC on every workload under the
// greedy policy: the erase and migration reductions.
func figure9And10(p Params, rs runs) []compareRow {
	rows := make([]compareRow, len(Workloads))
	for i, w := range Workloads {
		base, cg := rs.get(w, Baseline, "greedy", p), rs.get(w, CAGC, "greedy", p)
		rows[i] = compareRow{
			Workload:          w,
			Baseline:          base,
			CAGC:              cg,
			ErasedReduction:   reduction(float64(base.FTL.BlocksErased), float64(cg.FTL.BlocksErased)),
			MigratedReduction: reduction(float64(base.FTL.PagesMigrated), float64(cg.FTL.PagesMigrated)),
		}
	}
	return rows
}

// figure11Row is one workload's normalized mean response time for the
// three schemes (Baseline = 1.0). The paper frames these numbers as
// response times "during the SSD GC periods"; since GC interference is
// what separates the schemes over the replay, the normalized overall
// means carry the same comparison (per-request during-GC histograms
// are additionally available in each Result as GCLatency).
type figure11Row struct {
	Workload      Workload
	InlineNorm    float64 // paper: > 1 on every workload
	BaselineNorm  float64 // always 1
	CAGCNorm      float64 // paper: 0.664, 0.704, 0.299
	CAGCReduction float64 // 1 - CAGCNorm (paper: 33.6%, 29.6%, 70.1%)
}

// figure11 compares user response times across the three schemes under
// GC activity.
func figure11(p Params, rs runs) []figure11Row {
	rows := make([]figure11Row, len(Workloads))
	for i, w := range Workloads {
		row := figure11Row{Workload: w, BaselineNorm: 1}
		if bm := rs.get(w, Baseline, "greedy", p).Latency.Mean(); bm > 0 {
			row.InlineNorm = rs.get(w, InlineDedupe, "greedy", p).Latency.Mean() / bm
			row.CAGCNorm = rs.get(w, CAGC, "greedy", p).Latency.Mean() / bm
			row.CAGCReduction = 1 - row.CAGCNorm
		}
		rows[i] = row
	}
	return rows
}

// figure12Series is one workload's response-time CDF pair.
type figure12Series struct {
	Workload Workload
	Baseline []metrics.CDFPoint
	CAGC     []metrics.CDFPoint
}

// figure12 extracts the response-time CDFs of Baseline and CAGC.
func figure12(p Params, rs runs) []figure12Series {
	series := make([]figure12Series, len(Workloads))
	for i, w := range Workloads {
		series[i] = figure12Series{
			Workload: w,
			Baseline: rs.get(w, Baseline, "greedy", p).Latency.CDF(),
			CAGC:     rs.get(w, CAGC, "greedy", p).Latency.CDF(),
		}
	}
	return series
}

// figure13Cell is one bar of Figure 13: CAGC's reduction relative to
// Baseline under one victim-selection policy on one workload.
type figure13Cell struct {
	Policy   string
	Workload Workload

	ErasedReduction   float64 // Figure 13(a)
	MigratedReduction float64 // Figure 13(b)
	ResponseReduction float64 // Figure 13(c), during GC periods
}

// figure13Policies are the victim-selection policies of the
// sensitivity study.
var figure13Policies = []string{"random", "greedy", "cost-benefit"}

// figure13 is the sensitivity study: CAGC's improvements under Random,
// Greedy, and Cost-Benefit victim selection.
func figure13(p Params, rs runs) []figure13Cell {
	var cells []figure13Cell
	for _, w := range Workloads {
		for _, pol := range figure13Policies {
			base, cg := rs.get(w, Baseline, pol, p), rs.get(w, CAGC, pol, p)
			cells = append(cells, figure13Cell{
				Policy:            pol,
				Workload:          w,
				ErasedReduction:   reduction(float64(base.FTL.BlocksErased), float64(cg.FTL.BlocksErased)),
				MigratedReduction: reduction(float64(base.FTL.PagesMigrated), float64(cg.FTL.PagesMigrated)),
				ResponseReduction: reduction(base.Latency.Mean(), cg.Latency.Mean()),
			})
		}
	}
	return cells
}

// mixedTenants replays a Mail tenant and a Web-vm tenant, merged by
// arrival time onto disjoint halves of one SSD, through scheme s — the
// enterprise consolidation scenario the paper's introduction
// motivates. Dedup still pays off across tenants when they share
// content (both draw from the same popular-content universe here, as
// co-hosted services with shared software images do).
func mixedTenants(p Params, s Scheme) (*Result, error) {
	p = p.withDefaults()
	logical, err := LogicalPagesFor(p)
	if err != nil {
		return nil, err
	}
	half := logical / 2
	var tenants [2]*trace.Generator // Mail, then Web-vm on the upper half
	for i, w := range []Workload{Mail, WebVM} {
		spec, err := trace.Preset(w, half, p.Requests/2, p.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		if tenants[i], err = trace.NewGenerator(spec); err != nil {
			return nil, err
		}
	}
	merged := trace.Merge(tenants[0], &trace.Offset{Src: tenants[1], Base: half})
	res, err := ReplayTrace(merged, Homes, s, "greedy", p)
	if err != nil {
		return nil, err
	}
	res.Workload = "Mail+Web-vm"
	return res, nil
}

// tableIIRow compares one generated workload's characteristics with
// the published Table II values.
type tableIIRow struct {
	Workload                      Workload
	WantWriteRatio, GotWriteRatio float64
	WantDedupRatio, GotDedupRatio float64
	WantAvgReqKB, GotAvgReqKB     float64
}

// tableII generates each workload and characterizes it against the
// published statistics.
func tableII(p Params) ([]tableIIRow, error) {
	p = p.withDefaults()
	rows := make([]tableIIRow, 0, len(Workloads))
	for _, w := range Workloads {
		spec, err := trace.Preset(w, 1<<16, p.Requests, p.Seed)
		if err != nil {
			return nil, err
		}
		gen, err := trace.NewGenerator(spec)
		if err != nil {
			return nil, err
		}
		c := trace.Characterize(gen, 4096)
		wr, dr, kb, err := trace.TableII(w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, tableIIRow{
			Workload:       w,
			WantWriteRatio: wr, GotWriteRatio: c.WriteRatio,
			WantDedupRatio: dr, GotDedupRatio: c.DedupRatio,
			WantAvgReqKB: kb, GotAvgReqKB: c.AvgReqKB,
		})
	}
	return rows, nil
}
