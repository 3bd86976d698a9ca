package cagc

// Ablation harness for the design choices DESIGN.md calls out. These go
// beyond the paper's figures: each isolates one mechanism of CAGC.

import (
	"fmt"

	"cagc/internal/ftl"
)

// ThresholdPoint is one sweep point of the hot/cold reference-count
// threshold ablation.
type ThresholdPoint struct {
	Threshold int
	Result    *Result
}

// AblateThreshold sweeps CAGC's cold-region threshold (the paper uses
// 1; higher values keep more pages hot).
func AblateThreshold(w Workload, thresholds []int, p Params) ([]ThresholdPoint, error) {
	out := make([]ThresholdPoint, 0, len(thresholds))
	for _, t := range thresholds {
		q := p
		q.RefThreshold = t
		res, err := Run(w, CAGC, "greedy", q)
		if err != nil {
			return nil, fmt.Errorf("threshold %d: %w", t, err)
		}
		out = append(out, ThresholdPoint{Threshold: t, Result: res})
	}
	return out, nil
}

// PlacementAblation contrasts full CAGC with GC-dedup-only (no hot/cold
// placement), isolating the paper's second prong.
type PlacementAblation struct {
	Full        *Result // dedup + placement
	DedupOnly   *Result // dedup, no placement
	ErasedDelta float64 // fraction more blocks erased without placement
}

// AblatePlacement measures what reference-count-based placement adds on
// top of GC-time dedup.
func AblatePlacement(w Workload, p Params) (*PlacementAblation, error) {
	full, err := Run(w, CAGC, "greedy", p)
	if err != nil {
		return nil, err
	}
	opts := CAGC.Options()
	opts.HotCold = false
	dedupOnly, err := runOptions(w, opts, "greedy", p)
	if err != nil {
		return nil, err
	}
	a := &PlacementAblation{Full: full, DedupOnly: dedupOnly}
	if full.FTL.BlocksErased > 0 {
		a.ErasedDelta = float64(dedupOnly.FTL.BlocksErased)/float64(full.FTL.BlocksErased) - 1
	}
	return a, nil
}

// OverlapAblation contrasts the pipelined GC (hash overlapped with
// copies and erase) with the strictly serial variant, isolating the
// paper's parallelization claim.
type OverlapAblation struct {
	Overlapped *Result
	Serial     *Result
	// GCPeriodSlowdown is serial/overlapped mean response during GC
	// periods (> 1 means the overlap helps).
	GCPeriodSlowdown float64
}

// AblateOverlap measures what the hash/copy/erase overlap buys.
func AblateOverlap(w Workload, p Params) (*OverlapAblation, error) {
	over, err := Run(w, CAGC, "greedy", p)
	if err != nil {
		return nil, err
	}
	opts := CAGC.Options()
	opts.HashAt = ftl.HashAtMigrateSerial
	serial, err := runOptions(w, opts, "greedy", p)
	if err != nil {
		return nil, err
	}
	a := &OverlapAblation{Overlapped: over, Serial: serial}
	if m := gcPeriodMean(over); m > 0 {
		a.GCPeriodSlowdown = gcPeriodMean(serial) / m
	}
	return a, nil
}

// BufferPoint is one sweep point of the write-buffer ablation: the
// related-work lever (RAM write caching) applied to the Baseline,
// against plain CAGC.
type BufferPoint struct {
	BufferPages int
	Baseline    *Result // baseline + buffer of this size
}

// AblateWriteBuffer asks how much of CAGC's write-traffic benefit a
// plain controller write buffer captures: it sweeps buffer sizes on the
// Baseline scheme and runs CAGC (no buffer) for reference.
func AblateWriteBuffer(w Workload, sizes []int, p Params) (points []BufferPoint, cagcRef *Result, err error) {
	cagcRef, err = Run(w, CAGC, "greedy", p)
	if err != nil {
		return nil, nil, err
	}
	for _, n := range sizes {
		q := p
		q.BufferPages = n
		res, err := Run(w, Baseline, "greedy", q)
		if err != nil {
			return nil, nil, fmt.Errorf("buffer %d: %w", n, err)
		}
		points = append(points, BufferPoint{BufferPages: n, Baseline: res})
	}
	return points, cagcRef, nil
}

// WearLevelAblation contrasts CAGC with and without static wear
// leveling: cold-region pinning is exactly the pattern static WL
// exists to unpin.
type WearLevelAblation struct {
	Off *Result
	On  *Result
}

// AblateWearLevel runs CAGC with static wear leveling off and on
// (threshold in erase counts).
func AblateWearLevel(w Workload, threshold int, p Params) (*WearLevelAblation, error) {
	off, err := Run(w, CAGC, "greedy", p)
	if err != nil {
		return nil, err
	}
	q := p
	q.WearLevelThreshold = threshold
	on, err := Run(w, CAGC, "greedy", q)
	if err != nil {
		return nil, err
	}
	return &WearLevelAblation{Off: off, On: on}, nil
}

// IndexCapacityPoint is one sweep point of the fingerprint-index RAM
// bound.
type IndexCapacityPoint struct {
	Capacity int // fingerprints (0 = unlimited)
	Result   *Result
}

// AblateIndexCapacity sweeps the fingerprint-index bound on CAGC: a
// smaller cache forfeits dedup hits (CAFTL's RAM/hit-rate trade-off).
func AblateIndexCapacity(w Workload, caps []int, p Params) ([]IndexCapacityPoint, error) {
	out := make([]IndexCapacityPoint, 0, len(caps))
	for _, c := range caps {
		q := p
		q.IndexCapacity = c
		res, err := Run(w, CAGC, "greedy", q)
		if err != nil {
			return nil, fmt.Errorf("index capacity %d: %w", c, err)
		}
		out = append(out, IndexCapacityPoint{Capacity: c, Result: res})
	}
	return out, nil
}

// WatermarkPoint is one point of the GC-trigger sweep.
type WatermarkPoint struct {
	Watermark float64
	Baseline  *Result
	CAGC      *Result
}

// AblateWatermark sweeps the GC trigger threshold (Table I uses 20%).
// Lower watermarks defer GC (denser victims, better WA) at the price of
// thinner reserves under bursts.
func AblateWatermark(w Workload, marks []float64, p Params) ([]WatermarkPoint, error) {
	out := make([]WatermarkPoint, 0, len(marks))
	for _, m := range marks {
		bo := Baseline.Options()
		bo.Watermark = m
		base, err := runOptions(w, bo, "greedy", p)
		if err != nil {
			return nil, fmt.Errorf("watermark %.2f baseline: %w", m, err)
		}
		co := CAGC.Options()
		co.Watermark = m
		cg, err := runOptions(w, co, "greedy", p)
		if err != nil {
			return nil, fmt.Errorf("watermark %.2f cagc: %w", m, err)
		}
		out = append(out, WatermarkPoint{Watermark: m, Baseline: base, CAGC: cg})
	}
	return out, nil
}

// MapCachePoint is one point of the cached-mapping-table sweep.
type MapCachePoint struct {
	Entries int // CMT capacity in mapping entries (0 = all in RAM)
	Result  *Result
}

// AblateMappingCache sweeps the DFTL-style mapping-cache size on CAGC:
// how much response time does SRAM-limited mapping metadata cost on
// top of the scheme? (The paper assumes a fully RAM-resident map.)
func AblateMappingCache(w Workload, entries []int, p Params) ([]MapCachePoint, error) {
	out := make([]MapCachePoint, 0, len(entries))
	for _, n := range entries {
		q := p
		q.MappingCache = n
		res, err := Run(w, CAGC, "greedy", q)
		if err != nil {
			return nil, fmt.Errorf("mapping cache %d: %w", n, err)
		}
		out = append(out, MapCachePoint{Entries: n, Result: res})
	}
	return out, nil
}

// ThroughputPoint is one point of the closed-loop queue-depth sweep.
type ThroughputPoint struct {
	QueueDepth int
	Baseline   *Result
	CAGC       *Result
}

// ThroughputCurve measures saturation throughput (closed-loop IOPS) of
// Baseline and CAGC across queue depths — an extension beyond the
// paper's open-loop evaluation: does GC-time dedup also help when the
// host never lets the device idle?
func ThroughputCurve(w Workload, depths []int, p Params) ([]ThroughputPoint, error) {
	out := make([]ThroughputPoint, len(depths))
	err := forEach(len(depths), func(i int) error {
		q := p
		q.QueueDepth = depths[i]
		base, err := Run(w, Baseline, "greedy", q)
		if err != nil {
			return fmt.Errorf("qd %d baseline: %w", depths[i], err)
		}
		cg, err := Run(w, CAGC, "greedy", q)
		if err != nil {
			return fmt.Errorf("qd %d cagc: %w", depths[i], err)
		}
		out[i] = ThroughputPoint{QueueDepth: depths[i], Baseline: base, CAGC: cg}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// UtilizationPoint is one sweep point of the space-pressure ablation
// (standing in for an over-provisioning sweep: utilization and OP pull
// the same lever, free-space headroom).
type UtilizationPoint struct {
	Utilization float64
	Baseline    *Result
	CAGC        *Result
}

// AblateUtilization sweeps space pressure and reports how CAGC's
// advantage moves with it.
func AblateUtilization(w Workload, utils []float64, p Params) ([]UtilizationPoint, error) {
	out := make([]UtilizationPoint, 0, len(utils))
	for _, u := range utils {
		q := p
		q.Utilization = u
		base, err := Run(w, Baseline, "greedy", q)
		if err != nil {
			return nil, fmt.Errorf("utilization %.2f baseline: %w", u, err)
		}
		cg, err := Run(w, CAGC, "greedy", q)
		if err != nil {
			return nil, fmt.Errorf("utilization %.2f cagc: %w", u, err)
		}
		out = append(out, UtilizationPoint{Utilization: u, Baseline: base, CAGC: cg})
	}
	return out, nil
}
