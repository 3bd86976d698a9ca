package cagc

import (
	"context"
	"fmt"

	icagc "cagc/internal/cagc"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// Time is a point or duration in simulated time, in nanoseconds.
// Latency histograms in Result are expressed in Time.
type Time = event.Time

// Convenient duration units.
const (
	Microsecond = event.Microsecond
	Millisecond = event.Millisecond
)

// Workload names one of the paper's three FIU-derived workloads.
type Workload = trace.WorkloadName

// The Table-II workloads.
const (
	Homes = trace.Homes
	WebVM = trace.WebVM
	Mail  = trace.Mail
)

// Workloads lists the workloads in the paper's presentation order.
var Workloads = trace.Workloads

// Scheme names one of the evaluated FTL configurations.
type Scheme = icagc.Scheme

// The evaluated schemes.
const (
	Baseline     = icagc.Baseline
	InlineDedupe = icagc.InlineDedupe
	CAGC         = icagc.CAGC
)

// Schemes lists the schemes in the paper's presentation order.
var Schemes = icagc.Schemes

// ParseScheme resolves a scheme CLI name.
func ParseScheme(name string) (Scheme, error) { return icagc.ParseScheme(name) }

// SchemeNames lists the canonical scheme CLI names, in the paper's
// presentation order.
func SchemeNames() []string { return icagc.SchemeNames() }

// PolicyNames lists the canonical victim-policy names ValidatePolicy
// accepts.
func PolicyNames() []string { return []string{"greedy", "random", "cost-benefit"} }

// ValidatePolicy rejects unknown victim-policy names — the same check
// Run performs, exposed so front ends (CLI flag validation, service
// admission) can fail before committing resources.
func ValidatePolicy(name string) error {
	_, err := ftl.PolicyByName(name, 1)
	return err
}

// Result is the full measurement record of one simulation run.
type Result = sim.Result

// Options is the raw FTL mechanism configuration, for ablation studies
// that go beyond the three named schemes.
type Options = ftl.Options

// WorkedResult is the outcome of the Figure-8 worked example.
type WorkedResult = icagc.WorkedResult

// Params scales an experiment. The zero value gives laptop-friendly
// defaults: a 16 MiB scaled Table-I device and 20 000 requests — the
// canonical evaluation scale, at which the offered burst load exercises
// the GC watermark the way the paper's replay does. The paper's full
// 80 GB device is available via DeviceBytes = 80 << 30, but GC-
// interference results then require the workload's burst intensity to
// be scaled up with the free-pool size (see EXPERIMENTS.md).
type Params struct {
	// DeviceBytes is the physical flash capacity (default 16 MiB).
	// Page/block sizes, latencies, OP and watermark stay at Table-I
	// values at every scale.
	DeviceBytes int64
	// Requests is the measured request count per run (default 20000).
	Requests int
	// Seed makes every run reproducible (default 1).
	Seed int64
	// Utilization is the logical address space as a fraction of the
	// user-visible capacity (default 0.55, which reproduces the
	// paper's steady-state GC pressure on scaled devices).
	Utilization float64
	// RefThreshold overrides the hot/cold reference-count threshold
	// for CAGC runs (default 1, the paper's value).
	RefThreshold int
	// BufferPages interposes a controller-DRAM write-back buffer of
	// this many pages (0, the paper's configuration, disables it).
	BufferPages int
	// WearLevelThreshold enables static wear leveling at the given
	// erase-count spread (0, the paper's configuration, disables it).
	WearLevelThreshold int
	// IndexCapacity caps the fingerprint index (0 = unlimited, the
	// paper's assumption).
	IndexCapacity int
	// QueueDepth switches to closed-loop saturation replay with this
	// many outstanding requests (0, the figures' configuration, keeps
	// the open-loop trace-timestamp replay).
	QueueDepth int
	// MappingCache models a DFTL-style cached mapping table of this
	// many entries (0, the paper's assumption, keeps the whole map in
	// controller RAM).
	MappingCache int
	// EraseLimit is the per-block endurance budget; worn-out blocks
	// are retired by bad-block management (0 = unlimited, the usual
	// simulation setting).
	EraseLimit int
	// ColdStart bypasses the warm-state snapshot cache: the device is
	// built and preconditioned from scratch even when a matching warm
	// state is cached. Results are bit-identical either way; cold
	// starts trade wall-clock for not retaining snapshots in memory
	// (relevant at very large DeviceBytes).
	ColdStart bool
	// Trace, when non-nil, receives every instrumentation event of the
	// run (see NewTraceRecorder / WriteChromeTrace). Tracing is purely
	// observational: results are bit-identical with or without it. On a
	// warm (cached) run the trace covers the measured replay; combine
	// with ColdStart to also trace the preconditioning fill.
	Trace Tracer
	// Ctx, when non-nil, bounds the run's wall clock: the replay (and,
	// on cold starts, the precondition fill) polls it periodically and
	// fails with an error wrapping ctx.Err() once it is done. Purely a
	// wall-clock bound — a run that completes under a context is
	// bit-identical to one without. Shared warm-snapshot builds are
	// never cancelled by one run's context.
	Ctx context.Context
}

func (p Params) withDefaults() Params {
	if p.DeviceBytes == 0 {
		p.DeviceBytes = 16 << 20
	}
	if p.Requests == 0 {
		p.Requests = 20000
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Utilization == 0 {
		p.Utilization = 0.55
	}
	if p.RefThreshold == 0 {
		p.RefThreshold = 1
	}
	return p
}

// Run simulates one scheme on one workload with the given victim
// policy ("greedy", "random", or "cost-benefit").
func Run(w Workload, s Scheme, policy string, p Params) (*Result, error) {
	opts := s.Options()
	return RunOptions(w, opts, policy, p)
}

// RunOptions is Run with full control over the FTL mechanisms, for
// ablations (e.g., CAGC without hot/cold placement, or without the
// hash/erase overlap).
func RunOptions(w Workload, opts Options, policy string, p Params) (*Result, error) {
	p = p.withDefaults()
	cfg, spec, err := buildRun(w, opts, policy, p)
	if err != nil {
		return nil, err
	}
	return runCached(cfg, spec, p)
}

// buildRun assembles the simulator configuration and workload spec one
// run needs; shared by RunOptions and the substrate bench harness.
// p must already carry defaults.
func buildRun(w Workload, opts Options, policy string, p Params) (sim.Config, trace.Spec, error) {
	pol, err := ftl.PolicyByName(policy, p.Seed)
	if err != nil {
		return sim.Config{}, trace.Spec{}, err
	}
	opts.Policy = pol
	if opts.RefThreshold == 0 || p.RefThreshold != 1 {
		opts.RefThreshold = p.RefThreshold
	}
	if p.WearLevelThreshold > 0 {
		opts.WearLevelThreshold = p.WearLevelThreshold
	}
	if p.IndexCapacity > 0 {
		opts.IndexCapacity = p.IndexCapacity
	}
	if p.MappingCache > 0 {
		opts.MappingCache = p.MappingCache
	}
	device := flash.ScaledConfig(p.DeviceBytes)
	device.EraseLimit = p.EraseLimit
	cfg := sim.Config{
		Device:      device,
		Options:     opts,
		Utilization: p.Utilization,
		BufferPages: p.BufferPages,
		QueueDepth:  p.QueueDepth,
		Tracer:      p.Trace,
		Ctx:         p.Ctx,
	}
	spec, err := trace.Preset(w, sim.LogicalPagesOf(cfg), p.Requests, p.Seed)
	if err != nil {
		return sim.Config{}, trace.Spec{}, err
	}
	return cfg, spec, nil
}

// reduction returns 1 - with/without as a fraction (e.g. 0.45 = 45%
// lower), or 0 when the base is zero.
func reduction(without, with float64) float64 {
	if without == 0 {
		return 0
	}
	return 1 - with/without
}

// gcPeriodMean returns the mean response time during GC periods,
// falling back to the overall mean when the run had no GC overlap.
func gcPeriodMean(r *Result) float64 {
	if r.GCLatency.Count() > 0 {
		return r.GCLatency.Mean()
	}
	return r.Latency.Mean()
}

// TableIString renders the device configuration actually used at the
// given scale, next to the paper's Table I.
func TableIString(p Params) string {
	p = p.withDefaults()
	c := flash.ScaledConfig(p.DeviceBytes)
	return fmt.Sprintf(
		"Page %dB  Block %dKB  OP %.0f%%  Capacity %.2fGB (scaled from Table I's 80GB)\n"+
			"Read %v  Write %v  Erase %v  Hash %v  GC watermark 20%%\n"+
			"Geometry: %v",
		c.Geometry.PageSize, c.Geometry.BlockBytes()/1024, c.OverProvision*100,
		float64(c.UserBytes())/(1<<30),
		c.Latencies.Read, c.Latencies.Program, c.Latencies.Erase, c.Latencies.Hash,
		c.Geometry)
}
