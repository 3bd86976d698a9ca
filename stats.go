package cagc

// Multi-seed experiment statistics. Every simulation is deterministic
// per seed; scientific comparisons should nonetheless report variation
// across workload seeds. Aggregate collects the key metrics of repeated
// runs and reports mean and sample standard deviation.

import (
	"fmt"
	"math"
)

// Metric is a mean ± sample standard deviation over seeds.
type Metric struct {
	Mean   float64
	Stddev float64
	N      int
}

func (m Metric) String() string {
	return fmt.Sprintf("%.1f±%.1f", m.Mean, m.Stddev)
}

// RelStddev returns Stddev/Mean (0 when the mean is 0).
func (m Metric) RelStddev() float64 {
	if m.Mean == 0 {
		return 0
	}
	return m.Stddev / m.Mean
}

func newMetric(xs []float64) Metric {
	n := len(xs)
	if n == 0 {
		return Metric{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := 0.0
	if n > 1 {
		sd = math.Sqrt(ss / float64(n-1))
	}
	return Metric{Mean: mean, Stddev: sd, N: n}
}

// Aggregate is the cross-seed summary of one scheme × workload.
type Aggregate struct {
	Scheme   string
	Workload string
	Seeds    []int64

	MeanLatencyUs Metric // mean response time, µs
	P99LatencyUs  Metric
	BlocksErased  Metric
	PagesMigrated Metric
	WriteAmp      Metric
	Results       []*Result // one per seed, in order
}

// RunSeeds repeats Run across seeds and aggregates the headline
// metrics. Seeds must be non-empty.
func RunSeeds(w Workload, s Scheme, policy string, p Params, seeds []int64) (*Aggregate, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("cagc: RunSeeds needs at least one seed")
	}
	agg := &Aggregate{Workload: string(w), Seeds: seeds}
	agg.Results = make([]*Result, len(seeds))
	if err := forEach(len(seeds), func(i int) error {
		q := p
		q.Seed = seeds[i]
		res, err := Run(w, s, policy, q)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seeds[i], err)
		}
		agg.Results[i] = res
		return nil
	}); err != nil {
		return nil, err
	}
	var mean, p99, erased, migrated, wa []float64
	for _, res := range agg.Results {
		agg.Scheme = res.Scheme
		mean = append(mean, res.MeanLatency())
		p99 = append(p99, res.Latency.Percentile(0.99).Micros())
		erased = append(erased, float64(res.FTL.BlocksErased))
		migrated = append(migrated, float64(res.FTL.PagesMigrated))
		wa = append(wa, res.FTL.WriteAmplification())
	}
	agg.MeanLatencyUs = newMetric(mean)
	agg.P99LatencyUs = newMetric(p99)
	agg.BlocksErased = newMetric(erased)
	agg.PagesMigrated = newMetric(migrated)
	agg.WriteAmp = newMetric(wa)
	return agg, nil
}

// CompareSeeds runs Baseline and CAGC over the same seeds and reports
// the per-seed-paired reduction metrics — the statistically careful
// version of Figures 9–11.
type SeededComparison struct {
	Workload          Workload
	Baseline, CAGC    *Aggregate
	ErasedReduction   Metric // paired per-seed reductions
	MigratedReduction Metric
	LatencyReduction  Metric
}

// CompareSeeds pairs Baseline and CAGC runs seed by seed.
func CompareSeeds(w Workload, policy string, p Params, seeds []int64) (*SeededComparison, error) {
	base, err := RunSeeds(w, Baseline, policy, p, seeds)
	if err != nil {
		return nil, err
	}
	cg, err := RunSeeds(w, CAGC, policy, p, seeds)
	if err != nil {
		return nil, err
	}
	var er, mr, lr []float64
	for i := range seeds {
		b, c := base.Results[i], cg.Results[i]
		er = append(er, reduction(float64(b.FTL.BlocksErased), float64(c.FTL.BlocksErased)))
		mr = append(mr, reduction(float64(b.FTL.PagesMigrated), float64(c.FTL.PagesMigrated)))
		lr = append(lr, reduction(b.Latency.Mean(), c.Latency.Mean()))
	}
	return &SeededComparison{
		Workload:          w,
		Baseline:          base,
		CAGC:              cg,
		ErasedReduction:   newMetric(er),
		MigratedReduction: newMetric(mr),
		LatencyReduction:  newMetric(lr),
	}, nil
}

// EventsOf tallies the discrete operations the substrate processed
// during the measured phase of a run — the numerator of every
// events/sec throughput figure (the benchmark ledger, batch aggregates,
// the serving layer's /metrics).
func EventsOf(r *Result) uint64 {
	return r.Requests +
		r.FTL.UserReadPages + r.FTL.UserWritePages + r.FTL.UserTrimPages +
		r.FTL.GCReads + r.FTL.TotalPrograms() + r.FTL.BlocksErased +
		r.FTL.HashOps
}
