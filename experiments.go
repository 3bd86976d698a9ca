package cagc

// The per-figure experiment harness. Each FigureN function regenerates
// the data behind the corresponding figure of the paper's evaluation
// (Section IV); EXPERIMENTS.md records paper-vs-measured for each.

import (
	"fmt"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/metrics"
	"cagc/internal/trace"
)

// Figure2Row is one bar pair of Figure 2: the response-time cost of
// inline deduplication on an ultra-low-latency SSD.
type Figure2Row struct {
	Workload     Workload
	BaselineMean float64 // µs
	InlineMean   float64 // µs
	Normalized   float64 // InlineMean / BaselineMean (paper: 1.2-1.7)
}

// Figure2 compares Baseline and Inline-Dedupe mean response times on
// the three workloads (the paper's motivation experiment).
func Figure2(p Params) ([]Figure2Row, error) {
	rows := make([]Figure2Row, len(Workloads))
	err := forEach(len(Workloads), func(i int) error {
		w := Workloads[i]
		base, err := Run(w, Baseline, "greedy", p)
		if err != nil {
			return fmt.Errorf("figure 2 %s baseline: %w", w, err)
		}
		inline, err := Run(w, InlineDedupe, "greedy", p)
		if err != nil {
			return fmt.Errorf("figure 2 %s inline: %w", w, err)
		}
		row := Figure2Row{
			Workload:     w,
			BaselineMean: base.MeanLatency(),
			InlineMean:   inline.MeanLatency(),
		}
		if row.BaselineMean > 0 {
			row.Normalized = row.InlineMean / row.BaselineMean
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Figure6Row is one bar group of Figure 6: where invalid pages come
// from, bucketed by the page's reference count {1, 2, 3, >3}.
type Figure6Row struct {
	Workload Workload
	Shares   [4]float64
	Total    uint64
}

// Figure6 measures the reference-count distribution of invalidated
// pages. The Inline-Dedupe scheme is used because it maintains exact
// reference counts from the first write on (the paper computed this
// from the traces with full dedup visibility).
func Figure6(p Params) ([]Figure6Row, error) {
	rows := make([]Figure6Row, len(Workloads))
	err := forEach(len(Workloads), func(i int) error {
		w := Workloads[i]
		res, err := Run(w, InlineDedupe, "greedy", p)
		if err != nil {
			return fmt.Errorf("figure 6 %s: %w", w, err)
		}
		var total uint64
		for _, c := range res.RefDist {
			total += c
		}
		rows[i] = Figure6Row{Workload: w, Shares: res.RefShares(), Total: total}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Figure6Analysis computes the same distribution by pure trace
// analysis — the paper's own methodology (content accounting over the
// trace, no device model).
func Figure6Analysis(p Params) ([]Figure6Row, error) {
	p = p.withDefaults()
	rows := make([]Figure6Row, 0, len(Workloads))
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
		rows = append(rows, Figure6Row{Workload: w, Shares: dist.Shares(), Total: dist.Total()})
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
	Promotions      uint64 // hot->cold moves when refcounts cross the threshold
	GCDupDropped    uint64 // redundant copies eliminated (paper: 5 for CAGC)
	BlocksErased    uint64
	ValidAfter      int // live flash pages after the deletes (paper: 7 vs 4 contents)
	FreePagesAfter  int
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

	free, valid, _ := dev.CountStates()
	return WorkedResult{
		Scheme:          s,
		MigrationWrites: after.PagesMigrated - before.PagesMigrated,
		Promotions:      after.Promotions - before.Promotions,
		GCDupDropped:    after.GCDupDropped - before.GCDupDropped,
		BlocksErased:    after.BlocksErased - before.BlocksErased,
		ValidAfter:      valid,
		FreePagesAfter:  free,
		LiveContents:    f.LiveContents(),
	}, nil
}

// CompareRow carries one workload's Baseline-vs-CAGC comparison: the
// data behind Figures 9 (blocks erased) and 10 (pages migrated).
type CompareRow struct {
	Workload Workload
	Baseline *Result
	CAGC     *Result

	ErasedReduction   float64 // Figure 9 (paper: 23.3%, 48.3%, 86.6%)
	MigratedReduction float64 // Figure 10 (paper: 35.1%, 47.9%, 85.9%)
}

// Figure9And10 runs Baseline and CAGC on every workload under the
// greedy policy and reports the erase and migration reductions.
func Figure9And10(p Params) ([]CompareRow, error) {
	rows := make([]CompareRow, len(Workloads))
	err := forEach(len(Workloads), func(i int) error {
		w := Workloads[i]
		base, err := Run(w, Baseline, "greedy", p)
		if err != nil {
			return fmt.Errorf("figure 9/10 %s baseline: %w", w, err)
		}
		cg, err := Run(w, CAGC, "greedy", p)
		if err != nil {
			return fmt.Errorf("figure 9/10 %s cagc: %w", w, err)
		}
		rows[i] = CompareRow{
			Workload:          w,
			Baseline:          base,
			CAGC:              cg,
			ErasedReduction:   reduction(float64(base.FTL.BlocksErased), float64(cg.FTL.BlocksErased)),
			MigratedReduction: reduction(float64(base.FTL.PagesMigrated), float64(cg.FTL.PagesMigrated)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Figure11Row is one workload's normalized mean response time for the
// three schemes (Baseline = 1.0). The paper frames these numbers as
// response times "during the SSD GC periods"; since GC interference is
// what separates the schemes over the replay, the normalized overall
// means carry the same comparison (per-request during-GC histograms
// are additionally available in each Result as GCLatency).
type Figure11Row struct {
	Workload      Workload
	InlineNorm    float64 // paper: > 1 on every workload
	BaselineNorm  float64 // always 1
	CAGCNorm      float64 // paper: 0.664, 0.704, 0.299
	CAGCReduction float64 // 1 - CAGCNorm (paper: 33.6%, 29.6%, 70.1%)
}

// Figure11 compares user response times across the three schemes under
// GC activity.
func Figure11(p Params) ([]Figure11Row, error) {
	rows := make([]Figure11Row, len(Workloads))
	err := forEach(len(Workloads), func(i int) error {
		w := Workloads[i]
		base, err := Run(w, Baseline, "greedy", p)
		if err != nil {
			return fmt.Errorf("figure 11 %s baseline: %w", w, err)
		}
		inline, err := Run(w, InlineDedupe, "greedy", p)
		if err != nil {
			return fmt.Errorf("figure 11 %s inline: %w", w, err)
		}
		cg, err := Run(w, CAGC, "greedy", p)
		if err != nil {
			return fmt.Errorf("figure 11 %s cagc: %w", w, err)
		}
		row := Figure11Row{Workload: w, BaselineNorm: 1}
		if bm := base.Latency.Mean(); bm > 0 {
			row.InlineNorm = inline.Latency.Mean() / bm
			row.CAGCNorm = cg.Latency.Mean() / bm
			row.CAGCReduction = 1 - row.CAGCNorm
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Figure12Series is one workload's response-time CDF pair.
type Figure12Series struct {
	Workload Workload
	Baseline []metrics.CDFPoint
	CAGC     []metrics.CDFPoint
}

// Figure12 extracts the response-time CDFs of Baseline and CAGC.
func Figure12(p Params) ([]Figure12Series, error) {
	series := make([]Figure12Series, len(Workloads))
	err := forEach(len(Workloads), func(i int) error {
		w := Workloads[i]
		base, err := Run(w, Baseline, "greedy", p)
		if err != nil {
			return fmt.Errorf("figure 12 %s baseline: %w", w, err)
		}
		cg, err := Run(w, CAGC, "greedy", p)
		if err != nil {
			return fmt.Errorf("figure 12 %s cagc: %w", w, err)
		}
		series[i] = Figure12Series{
			Workload: w,
			Baseline: base.Latency.CDF(),
			CAGC:     cg.Latency.CDF(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// Figure13Cell is one bar of Figure 13: CAGC's reduction relative to
// Baseline under one victim-selection policy on one workload.
type Figure13Cell struct {
	Policy   string
	Workload Workload

	ErasedReduction   float64 // Figure 13(a)
	MigratedReduction float64 // Figure 13(b)
	ResponseReduction float64 // Figure 13(c), during GC periods
}

// Figure13Policies are the victim-selection policies of the
// sensitivity study.
var Figure13Policies = []string{"random", "greedy", "cost-benefit"}

// Figure13 runs the sensitivity study: CAGC's improvements under
// Random, Greedy, and Cost-Benefit victim selection.
func Figure13(p Params) ([]Figure13Cell, error) {
	n := len(Workloads) * len(Figure13Policies)
	cells := make([]Figure13Cell, n)
	err := forEach(n, func(i int) error {
		w := Workloads[i/len(Figure13Policies)]
		pol := Figure13Policies[i%len(Figure13Policies)]
		base, err := Run(w, Baseline, pol, p)
		if err != nil {
			return fmt.Errorf("figure 13 %s/%s baseline: %w", w, pol, err)
		}
		cg, err := Run(w, CAGC, pol, p)
		if err != nil {
			return fmt.Errorf("figure 13 %s/%s cagc: %w", w, pol, err)
		}
		cells[i] = Figure13Cell{
			Policy:            pol,
			Workload:          w,
			ErasedReduction:   reduction(float64(base.FTL.BlocksErased), float64(cg.FTL.BlocksErased)),
			MigratedReduction: reduction(float64(base.FTL.PagesMigrated), float64(cg.FTL.PagesMigrated)),
			ResponseReduction: reduction(base.Latency.Mean(), cg.Latency.Mean()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// TenantsRow is one scheme's result under the consolidation mix.
type TenantsRow struct {
	Scheme Scheme
	Result *Result
}

// MixedTenants replays a Mail tenant and a Web-vm tenant, merged by
// arrival time onto disjoint halves of one SSD, through each scheme —
// the enterprise consolidation scenario the paper's introduction
// motivates. Dedup still pays off across tenants when they share
// content (both draw from the same popular-content universe here, as
// co-hosted services with shared software images do).
func MixedTenants(p Params, schemes []Scheme) ([]TenantsRow, error) {
	p = p.withDefaults()
	rows := make([]TenantsRow, len(schemes))
	err := forEach(len(schemes), func(i int) error {
		logical, err := LogicalPagesFor(p)
		if err != nil {
			return err
		}
		half := logical / 2
		mailSpec, err := trace.Preset(Mail, half, p.Requests/2, p.Seed)
		if err != nil {
			return err
		}
		webSpec, err := trace.Preset(WebVM, half, p.Requests/2, p.Seed+1)
		if err != nil {
			return err
		}
		mg, err := trace.NewGenerator(mailSpec)
		if err != nil {
			return err
		}
		wg, err := trace.NewGenerator(webSpec)
		if err != nil {
			return err
		}
		merged := trace.Merge(mg, &trace.Offset{Src: wg, Base: half})
		res, err := ReplayTrace(merged, Homes, schemes[i], "greedy", p)
		if err != nil {
			return err
		}
		res.Workload = "Mail+Web-vm"
		rows[i] = TenantsRow{Scheme: schemes[i], Result: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// TableIIRow compares one generated workload's characteristics with
// the published Table II values.
type TableIIRow struct {
	Workload                      Workload
	WantWriteRatio, GotWriteRatio float64
	WantDedupRatio, GotDedupRatio float64
	WantAvgReqKB, GotAvgReqKB     float64
	Requests, UniqueContents      int
}

// TableII generates each workload and characterizes it against the
// published statistics.
func TableII(p Params) ([]TableIIRow, error) {
	p = p.withDefaults()
	rows := make([]TableIIRow, 0, len(Workloads))
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
		rows = append(rows, TableIIRow{
			Workload:       w,
			WantWriteRatio: wr, GotWriteRatio: c.WriteRatio,
			WantDedupRatio: dr, GotDedupRatio: c.DedupRatio,
			WantAvgReqKB: kb, GotAvgReqKB: c.AvgReqKB,
			Requests:       c.Requests,
			UniqueContents: c.UniqueFPs,
		})
	}
	return rows, nil
}
