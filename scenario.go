package cagc

// Multi-tenant scenario composer: the production-shaped workload half
// of the streaming pipeline. Several named tenants — each a synthetic
// Table-II preset or a trace file — share one device, each in its own
// slice of the logical address space, merged time-ordered with
// per-tenant rate scaling and an optional diurnal burst envelope over
// the merged stream. The replay attributes every request back to its
// tenant, so the result carries per-tenant latency distributions and
// SLO-violation counts next to the device-wide figures.

import (
	"fmt"
	"math"
	"os"
	"strings"

	"cagc/internal/event"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// TenantSpec describes one tenant of a scenario.
type TenantSpec struct {
	// Name labels the tenant in results; defaults to the workload name
	// (or the file path).
	Name string
	// Workload selects a synthetic Table-II preset for this tenant.
	// Ignored when Path is set.
	Workload Workload
	// Path, when set, streams a trace file (any supported format) as
	// this tenant's request stream instead of a synthetic preset.
	Path string
	// Format and TimeScale are ReplayFileOptions for Path (format
	// override and FIU inter-arrival scaling).
	Format    string
	TimeScale float64
	// Rate multiplies the tenant's arrival rate: 2 issues twice as
	// fast, 0.5 half. 0 means 1.0.
	Rate float64
	// SLOUs is the tenant's per-request latency objective in
	// microseconds; responses slower than this count as violations.
	// 0 inherits ScenarioParams.SLOUs.
	SLOUs float64
	// Requests is the tenant's measured request count when synthetic;
	// 0 means an equal share of Params.Requests.
	Requests int
	// Seed overrides the tenant's generator seed; 0 derives a distinct
	// per-tenant seed from Params.Seed, so two tenants running the
	// same workload still produce different streams.
	Seed int64
}

// ScenarioParams composes a multi-tenant scenario.
type ScenarioParams struct {
	// Tenants are the participating streams; at least one.
	Tenants []TenantSpec
	// DiurnalPeriod/DiurnalAmp shape the merged stream's arrival rate
	// with a sinusoidal burst envelope: rate(t) = 1 + Amp·sin(2πt/P).
	// Period 0 or Amp 0 disables it; Amp must be in [0, 1).
	DiurnalPeriod Time
	DiurnalAmp    float64
	// SLOUs is the default per-tenant latency objective in
	// microseconds (0 disables violation counting for tenants without
	// their own).
	SLOUs float64
}

// ScenarioLabel renders the workload label a scenario's result carries:
// "scenario(a+b+c)" over the tenant names.
func ScenarioLabel(tenants []TenantSpec) string {
	names := make([]string, len(tenants))
	for i, t := range tenants {
		names[i] = tenantName(t)
	}
	return "scenario(" + strings.Join(names, "+") + ")"
}

func tenantName(t TenantSpec) string {
	if t.Name != "" {
		return t.Name
	}
	if t.Path != "" {
		return t.Path
	}
	return string(t.Workload)
}

// check refuses a scenario RunScenario cannot run: no tenant, an
// amplitude outside [0, 1), a negative diurnal period, an SLO that is
// negative or not finite, a rate that is not finite, or a file tenant
// in an unknown format.
func (sp ScenarioParams) check() error {
	if len(sp.Tenants) == 0 {
		return fmt.Errorf("cagc: scenario needs at least one tenant")
	}
	if !(0 <= sp.DiurnalAmp && sp.DiurnalAmp < 1) { // written so NaN fails
		return fmt.Errorf("cagc: diurnal amplitude %g outside [0, 1)", sp.DiurnalAmp)
	}
	if sp.DiurnalPeriod < 0 {
		return fmt.Errorf("cagc: diurnal period %v cannot be negative", sp.DiurnalPeriod)
	}
	if err := checkSLO("scenario", sp.SLOUs); err != nil {
		return err
	}
	for _, t := range sp.Tenants {
		if math.IsNaN(t.Rate) || math.IsInf(t.Rate, 0) {
			return fmt.Errorf("cagc: tenant %s rate %g is not finite", tenantName(t), t.Rate)
		}
		if err := checkSLO("tenant "+tenantName(t), t.SLOUs); err != nil {
			return err
		}
		if t.Path != "" {
			if _, err := trace.ParseFormat(t.Format); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkSLO refuses an SLO that would count nothing: a negative or
// non-finite objective.
func checkSLO(who string, us float64) error {
	if !(us >= 0) || math.IsInf(us, 1) { // written so NaN fails
		return fmt.Errorf("cagc: %s SLO %g us must be finite and >= 0", who, us)
	}
	return nil
}

// RunScenario replays a multi-tenant composition through scheme s. The
// logical address space is partitioned evenly across the tenants (each
// tenant's stream is offset into its own namespace); synthetic tenants
// generate presets sized to their share, file tenants decode their
// files. One decode-ahead ring carries the merged stream. The run is
// deterministic: identical parameters produce byte-identical results,
// including the per-tenant attribution.
//
// The device is preconditioned over the full address space with the
// first tenant's workload mixture (neutral across reruns and warm-cache
// compatible with plain runs of that workload).
func RunScenario(s Scheme, policy string, p Params, sp ScenarioParams) (*Result, error) {
	p = p.withDefaults()
	if err := sp.check(); err != nil {
		return nil, err
	}
	n := len(sp.Tenants)
	// Precondition over the full address space with the first tenant's
	// content mixture (file tenants fall back to Homes).
	preW := sp.Tenants[0].Workload
	if sp.Tenants[0].Path != "" || preW == "" {
		preW = Homes
	}
	cfg, spec, err := buildRun(preW, s.Options(), policy, p)
	if err != nil {
		return nil, err
	}
	logical := spec.LogicalPages
	share := logical / uint64(n)
	if share == 0 {
		return nil, fmt.Errorf("cagc: %d tenants over %d logical pages leaves empty namespaces", n, logical)
	}

	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	srcs := make([]trace.Source, n)
	ranges := make([]trace.TenantRange, n)
	// total is the merged run's length, -1 once a file tenant makes it
	// unknown.
	total := 0
	for i, t := range sp.Tenants {
		base := share * uint64(i)
		slo := t.SLOUs
		if slo == 0 {
			slo = sp.SLOUs
		}
		ranges[i] = trace.TenantRange{
			Name:  tenantName(t),
			Base:  base,
			Pages: share,
			SLO:   event.Time(slo * float64(event.Microsecond)),
		}
		var src trace.Source
		if t.Path != "" {
			format, err := trace.ParseFormat(t.Format)
			if err != nil {
				return nil, err
			}
			f, err := os.Open(t.Path)
			if err != nil {
				return nil, fmt.Errorf("cagc: tenant %s: %w", ranges[i].Name, err)
			}
			files = append(files, f)
			if src, err = trace.Open(f, trace.OpenOptions{Format: format, TimeScale: t.TimeScale}); err != nil {
				return nil, fmt.Errorf("cagc: tenant %s: %w", ranges[i].Name, err)
			}
			total = -1
		} else {
			reqs := t.Requests
			if reqs == 0 {
				reqs = p.Requests / n
				if reqs == 0 {
					reqs = 1
				}
			}
			seed := t.Seed
			if seed == 0 {
				seed = p.Seed + int64(i)
			}
			spec, err := trace.Preset(t.Workload, share, reqs, seed)
			if err != nil {
				return nil, fmt.Errorf("cagc: tenant %s: %w", ranges[i].Name, err)
			}
			gen, err := trace.NewGenerator(spec)
			if err != nil {
				return nil, fmt.Errorf("cagc: tenant %s: %w", ranges[i].Name, err)
			}
			src = gen
			if total >= 0 {
				total += reqs
			}
		}
		if t.Rate > 0 && t.Rate != 1 {
			src = &trace.TimeScale{Src: src, Factor: 1 / t.Rate}
		}
		srcs[i] = &trace.Offset{Src: src, Base: base}
	}
	var merged trace.Source = trace.Merge(srcs...)
	if sp.DiurnalPeriod > 0 && sp.DiurnalAmp > 0 {
		merged = &trace.Diurnal{Src: merged, Period: sp.DiurnalPeriod, Amp: sp.DiurnalAmp}
	}
	// The release runs before the files close: the ring's producer is
	// the only reader of every file tenant.
	merged, release := trace.Ahead(merged, total, trace.StreamOptions{Tracer: p.Trace})
	defer release()

	res, err := measure(cfg, spec, p, sim.Measured{Src: merged, Label: ScenarioLabel(sp.Tenants), Tenants: ranges})
	if err != nil {
		return nil, fmt.Errorf("cagc: scenario: %w", err)
	}
	return res, nil
}
