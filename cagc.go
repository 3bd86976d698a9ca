package cagc

import (
	"context"
	"fmt"
	"strings"

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

// Scheme names one of the evaluated FTL compositions. The mechanisms
// live in internal/ftl (the paper describes CAGC as a module inside the
// FTL); a scheme is one row of the table below.
type Scheme int

// The evaluated schemes.
const (
	// Baseline: no deduplication anywhere (the non-dedup ULL SSD).
	Baseline Scheme = iota
	// InlineDedupe: fingerprinting on the foreground write path.
	InlineDedupe
	// CAGC: deduplication embedded in GC with hash overlap and
	// reference-count-based hot/cold placement (the paper's scheme).
	CAGC
)

// schemes is the scheme vocabulary, one row per Scheme: the names
// ParseScheme accepts (canonical CLI name first) and the FTL
// composition.
var schemes = [...]struct {
	names   []string
	options func() ftl.Options
}{
	Baseline:     {[]string{"baseline"}, ftl.BaselineOptions},
	InlineDedupe: {[]string{"inline", "inline-dedupe"}, ftl.InlineDedupeOptions},
	CAGC:         {[]string{"cagc"}, ftl.CAGCOptions},
}

// Schemes lists the schemes in the paper's presentation order.
var Schemes = []Scheme{InlineDedupe, Baseline, CAGC}

// Options returns the FTL composition implementing s.
func (s Scheme) Options() ftl.Options { return schemes[s].options() }

// String is the scheme's display name, the one its FTL composition
// reports.
func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemes) {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return s.Options().SchemeName()
}

// ParseWorkload resolves a workload name case-insensitively (the hyphen
// in "Web-vm" is required).
func ParseWorkload(name string) (Workload, error) {
	for _, w := range Workloads {
		if strings.EqualFold(string(w), name) {
			return w, nil
		}
	}
	return "", fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
}

// ParseScheme resolves a scheme name case-insensitively.
func ParseScheme(name string) (Scheme, error) {
	for s, row := range schemes {
		for _, n := range row.names {
			if strings.EqualFold(n, name) {
				return Scheme(s), nil
			}
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (want one of %v)", name, SchemeNames())
}

// SchemeNames lists the canonical scheme CLI names, in the paper's
// presentation order.
func SchemeNames() []string {
	names := make([]string, len(Schemes))
	for i, s := range Schemes {
		names[i] = schemes[s].names[0]
	}
	return names
}

// Result is the full measurement record of one simulation run.
type Result = sim.Result

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
	Trace *TraceRecorder
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

// readBy returns p with the FTL knobs composition o never reads at their
// defaults, so such a knob forks neither ConfigKey nor the warm state:
// IndexCapacity when content is never hashed (there is no index), and
// RefThreshold unless hashed content is placed by reference count (a
// page never hashed has one reference, never above the threshold).
func (p Params) readBy(o ftl.Options) Params {
	if o.HashAt == ftl.HashNever {
		p.IndexCapacity = 0
	}
	if o.HashAt == ftl.HashNever || !o.HotCold {
		p.RefThreshold = 1
	}
	return p
}

// Run simulates one scheme on one workload with the given victim
// policy ("greedy", "random", or "cost-benefit").
func Run(w Workload, s Scheme, policy string, p Params) (*Result, error) {
	return runOptions(w, s.Options(), policy, p)
}

// runOptions is Run with full control over the FTL composition, for
// ablations (e.g., CAGC without hot/cold placement, or without the
// hash/erase overlap).
func runOptions(w Workload, opts ftl.Options, policy string, p Params) (*Result, error) {
	p = p.withDefaults()
	cfg, spec, err := buildRun(w, opts, policy, p)
	if err != nil {
		return nil, err
	}
	return measure(cfg, spec, p, sim.Measured{})
}

// buildRun is the one place Params becomes a simulator configuration
// and a workload spec. Every entry mode builds its device here — Run,
// RunFleet, ReplayTrace/ReplayFile, RunScenario, RunArray and
// LogicalPagesFor — so a Params field means the same in each of them.
// p must already carry defaults.
func buildRun(w Workload, opts ftl.Options, policy string, p Params) (sim.Config, trace.Spec, error) {
	if err := p.check(); err != nil {
		return sim.Config{}, trace.Spec{}, err
	}
	pol, err := ftl.PolicyByName(policy, p.Seed)
	if err != nil {
		return sim.Config{}, trace.Spec{}, err
	}
	opts.Policy = pol
	p = p.readBy(opts)
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

// tableIString renders the device configuration actually used at the
// given scale, next to the paper's Table I.
func tableIString(p Params) string {
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
