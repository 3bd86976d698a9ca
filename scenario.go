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
	"strings"

	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
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
	// ChunkRequests/Depth/SyncDecode tune the decode-ahead streaming
	// of file-backed tenants and of the merged stream (see
	// ReplayFileOptions).
	ChunkRequests int
	Depth         int
	SyncDecode    bool
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

// RunScenario replays a multi-tenant composition through scheme s. The
// logical address space is partitioned evenly across the tenants (each
// tenant's stream is offset into its own namespace); synthetic tenants
// generate presets sized to their share, file tenants stream with
// decode-ahead. The run is deterministic: identical parameters produce
// byte-identical results, including the per-tenant attribution.
//
// The device is preconditioned over the full address space with the
// first tenant's workload mixture (neutral across reruns and warm-cache
// compatible with plain runs of that workload).
func RunScenario(s Scheme, policy string, p Params, sp ScenarioParams) (*Result, error) {
	p = p.withDefaults()
	n := len(sp.Tenants)
	if n == 0 {
		return nil, fmt.Errorf("cagc: scenario needs at least one tenant")
	}
	if sp.DiurnalAmp < 0 || sp.DiurnalAmp >= 1 {
		return nil, fmt.Errorf("cagc: diurnal amplitude %g outside [0, 1)", sp.DiurnalAmp)
	}
	pol, err := ftl.PolicyByName(policy, p.Seed)
	if err != nil {
		return nil, err
	}
	opts := s.Options()
	opts.Policy = pol
	cfg := sim.Config{
		Device:      flash.ScaledConfig(p.DeviceBytes),
		Options:     opts,
		Utilization: p.Utilization,
		BufferPages: p.BufferPages,
		QueueDepth:  p.QueueDepth,
		Tracer:      p.Trace,
		Ctx:         p.Ctx,
	}
	logical := sim.LogicalPagesOf(cfg)
	share := logical / uint64(n)
	if share == 0 {
		return nil, fmt.Errorf("cagc: %d tenants over %d logical pages leaves empty namespaces", n, logical)
	}

	var closers []func() error
	defer func() {
		for _, c := range closers {
			c()
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
			st, closer, err := trace.OpenFile(t.Path,
				trace.OpenOptions{Format: format, TimeScale: t.TimeScale},
				trace.StreamOptions{
					ChunkRequests: sp.ChunkRequests,
					Depth:         sp.Depth,
					Sync:          sp.SyncDecode,
					Tracer:        p.Trace,
				})
			if err != nil {
				return nil, fmt.Errorf("cagc: tenant %s: %w", ranges[i].Name, err)
			}
			closers = append(closers, closer)
			src = st
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
	merged, release := trace.Ahead(merged, total, trace.StreamOptions{
		ChunkRequests: sp.ChunkRequests,
		Depth:         sp.Depth,
		Sync:          sp.SyncDecode,
		Tracer:        p.Trace,
	})
	defer release()

	// Precondition over the full address space with the first tenant's
	// content mixture (file tenants fall back to Homes).
	preW := sp.Tenants[0].Workload
	if sp.Tenants[0].Path != "" || preW == "" {
		preW = Homes
	}
	spec, err := trace.Preset(preW, logical, p.Requests, p.Seed)
	if err != nil {
		return nil, err
	}
	runner, offset, err := warmReplayRunner(cfg, spec, p)
	if err != nil {
		return nil, err
	}
	runner.SetTenants(ranges)
	res, err := runner.Replay(merged, offset, ScenarioLabel(sp.Tenants))
	if err != nil {
		return nil, fmt.Errorf("cagc: scenario: %w", err)
	}
	return res, nil
}
