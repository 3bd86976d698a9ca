// Package sim assembles the full simulated SSD — flash device, FTL
// scheme, workload — and replays content-annotated traces through it,
// producing the measurements behind every figure of the paper:
// response-time distributions, blocks erased, pages migrated, and the
// reference-count invalidation analysis.
//
// Replay is open-loop: requests arrive at their trace timestamps and
// queue on the device's die timelines, so garbage-collection activity
// directly inflates the response times of concurrent user requests —
// the interference mechanism the paper measures. A preconditioning pass
// (full device fill in shuffled order) runs before measurement so every
// scheme is observed in steady state.
package sim

import (
	"context"
	"fmt"

	"cagc/internal/buffer"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/metrics"
	"cagc/internal/obs"
	"cagc/internal/trace"
)

// Config describes one simulation run.
type Config struct {
	// Device is the flash configuration; zero value means a 64 MiB
	// scaled Table-I device.
	Device flash.Config
	// Options is the FTL scheme configuration (Baseline, Inline-Dedupe,
	// CAGC, or an ablation variant).
	Options ftl.Options
	// Utilization is the logical address space as a fraction of the
	// device's user-visible pages. Default 0.65: with 7% OP and the
	// 20% free-block watermark this keeps steady-state GC active
	// without demanding near-perfect compaction (the free ceiling must
	// clear the watermark plus the open write frontiers).
	Utilization float64
	// BufferPages, when positive, interposes a controller-DRAM
	// write-back buffer of that many pages in front of the FTL (the
	// related-work write-traffic lever). The buffer is drained at the
	// end of the replay.
	BufferPages int
	// QueueDepth switches the replay to closed-loop issue: trace
	// timestamps are ignored and at most QueueDepth requests are
	// outstanding — each new request issues when the oldest completes.
	// Zero (default) keeps the open-loop trace-timestamp replay the
	// figures use.
	QueueDepth int
	// Tracer, when non-nil, receives every instrumentation event of the
	// run (request spans, die operations, GC lifecycle, ...). Tracing is
	// purely observational — it never changes what the run computes —
	// and the field is excluded from warm-state snapshot identity: a
	// traced run may be served from a snapshot built by an untraced one.
	Tracer *obs.Recorder
	// Ctx, when non-nil, bounds the run: the precondition fill and the
	// measured replay poll it periodically and abort with an error
	// wrapping ctx.Err() once it is done. Simulated time is oblivious to
	// the deadline — a run either completes with the identical Result an
	// unbounded run produces, or fails; there are no partial results.
	// Excluded from warm-state snapshot identity (shared snapshot builds
	// are never cancelled by one caller's deadline), like Tracer.
	Ctx context.Context
}

// Normalized returns the config with defaults applied — the exact
// configuration a Runner built from c would use. Harnesses that derive
// per-device variations (fleet utilization skew, watermark stagger)
// normalize first so offsets apply to the real values, not to zero
// placeholders.
func (c Config) Normalized() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Device.Geometry.PageSize == 0 {
		c.Device = flash.ScaledConfig(64 << 20)
	}
	if c.Utilization == 0 {
		c.Utilization = 0.65
	}
	return c
}

// Result aggregates everything measured during the replay phase.
type Result struct {
	Scheme   string
	Workload string
	Policy   string

	Requests uint64     // measured requests completed
	Duration event.Time // last completion − first arrival (measured phase)

	// Latency histograms over request response times.
	Latency      metrics.Histogram // all requests
	ReadLatency  metrics.Histogram
	WriteLatency metrics.Histogram

	// GCLatency covers only requests that arrived while GC operations
	// were still in flight — the "response times during the SSD GC
	// periods" of the paper's Figure 11.
	GCLatency  metrics.Histogram
	GCRequests uint64 // requests that fell inside GC periods

	// FTL counters, measured phase only (precondition excluded).
	FTL ftl.Stats

	// RefDist is the Figure-6 distribution: invalid pages bucketed by
	// the peak reference count of the page, measured phase only.
	RefDist [4]uint64

	// Device state at the end.
	EraseSpread  int
	FreeFraction float64
	Regions      ftl.RegionStats

	// Tenants holds per-tenant latency attribution when the runner was
	// given tenant ranges (SetTenants); nil otherwise. Order follows
	// the configured ranges.
	Tenants []TenantResult
}

// TenantResult is one tenant's share of a multi-tenant replay:
// requests whose first logical page fell in the tenant's namespace,
// with their own response-time distribution and SLO accounting.
type TenantResult struct {
	Name string
	// Base/Pages echo the tenant's namespace (the attribution range).
	Base     uint64
	Pages    uint64
	SLO      event.Time // 0 when the tenant has no latency objective
	Requests uint64
	// Violations counts requests whose response time exceeded SLO
	// (always 0 when SLO is 0).
	Violations uint64
	Latency    metrics.Histogram
}

// MeanLatency returns the mean response time in microseconds.
func (r *Result) MeanLatency() float64 { return r.Latency.Mean() / 1000 }

// IOPS returns completed requests per second of simulated time.
func (r *Result) IOPS() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Requests) / (float64(r.Duration) / 1e9)
}

// RefShares returns RefDist normalized to fractions.
func (r *Result) RefShares() [4]float64 {
	var total uint64
	for _, c := range r.RefDist {
		total += c
	}
	var s [4]float64
	if total == 0 {
		return s
	}
	for i, c := range r.RefDist {
		s[i] = float64(c) / float64(total)
	}
	return s
}

func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: reqs=%d mean=%.1fus p99=%.1fus erased=%d migrated=%d WA=%.3f",
		r.Scheme, r.Workload, r.Requests, r.MeanLatency(),
		r.Latency.Percentile(0.99).Micros(), r.FTL.BlocksErased,
		r.FTL.PagesMigrated, r.FTL.WriteAmplification())
}

// Runner holds one assembled SSD ready to replay traces.
type Runner struct {
	cfg Config
	dev *flash.Device
	f   *ftl.FTL
	buf *buffer.WriteBuffer // nil unless BufferPages > 0
	tr  *obs.Recorder       // nil when tracing is off
	// tenants, when non-empty, makes Replay attribute each request to
	// the range containing its first logical page (see SetTenants).
	// Kept off Config so Config stays comparable for snapshot identity.
	tenants []trace.TenantRange
}

// LogicalPagesOf returns the logical address-space size a runner built
// from cfg would export, without building one — workload specs must
// target exactly this size.
func LogicalPagesOf(cfg Config) uint64 {
	cfg = cfg.withDefaults()
	return uint64(float64(cfg.Device.UserPages()) * cfg.Utilization)
}

// NewRunner builds the device and FTL.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	dev, err := flash.NewDevice(cfg.Device)
	if err != nil {
		return nil, err
	}
	logical := LogicalPagesOf(cfg)
	f, err := ftl.New(dev, logical, cfg.Options)
	if err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg, dev: dev, f: f}
	if cfg.BufferPages > 0 {
		if r.buf, err = buffer.New(f, cfg.BufferPages); err != nil {
			return nil, err
		}
	}
	r.SetTracer(cfg.Tracer)
	return r, nil
}

// SetTracer installs tr (nil turns tracing off) on the runner and
// every layer beneath it: the FTL, the flash device, and the write
// buffer when present.
func (r *Runner) SetTracer(tr *obs.Recorder) {
	r.tr = tr
	r.f.SetTracer(tr)
	if r.buf != nil {
		r.buf.SetTracer(tr)
	}
}

// SetTenants installs per-tenant attribution ranges for the next
// Replay: each measured request is credited to the first range
// containing its first logical page, producing Result.Tenants. Nil (the
// default) disables attribution. Tenant ranges are replay bookkeeping,
// not build state — they are deliberately not part of Config, so any
// warm snapshot with a compatible config can serve a tenant scenario.
func (r *Runner) SetTenants(ranges []trace.TenantRange) {
	r.tenants = ranges
}

// FTL exposes the runner's translation layer (for reports and tests).
func (r *Runner) FTL() *ftl.FTL { return r.f }

// LogicalPages returns the exported address-space size, which workload
// specs must match.
func (r *Runner) LogicalPages() uint64 { return r.f.LogicalPages() }

// reqKind maps a trace operation to its request-span kind.
func reqKind(op trace.Op) obs.Kind {
	switch op {
	case trace.OpRead:
		return obs.KReqRead
	case trace.OpWrite:
		return obs.KReqWrite
	default:
		return obs.KReqTrim
	}
}

// serveRequest issues one request's page operations and returns the
// completion time (max across pages). The whole request is one scope
// span on the requests track: every die, hash, buffer, and map event it
// causes (except detached background work) records as its child.
func (r *Runner) serveRequest(req trace.Request) (event.Time, error) {
	id := r.tr.Begin(obs.TrackRequests, reqKind(req.Op), req.At, req.LPN)
	var done event.Time
	for i := 0; i < req.Pages; i++ {
		lpn := req.LPN + uint64(i)
		if lpn >= r.f.LogicalPages() {
			break // clip requests that overrun the address space
		}
		var end event.Time
		var err error
		switch {
		case req.Op == trace.OpWrite && r.buf != nil:
			end, err = r.buf.Write(req.At, lpn, req.FPs[i])
		case req.Op == trace.OpWrite:
			end, err = r.f.Write(req.At, lpn, req.FPs[i])
		case req.Op == trace.OpRead && r.buf != nil:
			end, err = r.buf.Read(req.At, lpn)
		case req.Op == trace.OpRead:
			end, err = r.f.Read(req.At, lpn)
		case req.Op == trace.OpTrim && r.buf != nil:
			end, err = r.buf.Trim(req.At, lpn)
		case req.Op == trace.OpTrim:
			end, err = r.f.Trim(req.At, lpn)
		default:
			err = fmt.Errorf("sim: unknown op %v", req.Op)
		}
		if err != nil {
			r.tr.End(id, req.At)
			return 0, err
		}
		done = max(done, end)
	}
	r.tr.End(id, done)
	return done, nil
}

// cancelPollEvery is the request period at which the precondition fill
// and the measured replay poll Config.Ctx (power of two; the poll is
// one atomic load inside ctx.Err, but keeping it off the per-request
// path preserves the hot loop).
const cancelPollEvery = 256

// canceled returns the context's error wrapped with phase, or nil while
// the run may proceed. A nil context never cancels.
func canceled(ctx context.Context, phase string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: %s canceled: %w", phase, err)
	}
	return nil
}

// Precondition replays src (typically trace.NewPreconditioner) without
// recording latencies, and returns the virtual time at which the device
// settled (all operations complete).
func (r *Runner) Precondition(src trace.Source) (event.Time, error) {
	var settled event.Time
	var served uint64
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		end, err := r.serveRequest(req)
		if err != nil {
			return 0, fmt.Errorf("sim: precondition: %w", err)
		}
		if end > settled {
			settled = end
		}
		if served++; served%cancelPollEvery == 0 {
			if err := canceled(r.cfg.Ctx, "precondition"); err != nil {
				return 0, err
			}
		}
	}
	// A decode failure must fail the fill, not shorten it: a partially
	// preconditioned device would silently skew every measurement.
	if err := trace.SourceErr(src); err != nil {
		return 0, fmt.Errorf("sim: precondition: %w", err)
	}
	return settled, nil
}

// Idle-GC pacing: gaps longer than idleGCGap trigger background
// reclaim, aiming idleGCHeadroom above the watermark and keeping
// idleGCMargin clear of the next arrival.
const (
	idleGCGap      = 4 * event.Millisecond
	idleGCMargin   = 1 * event.Millisecond
	idleGCHeadroom = 0.05
)

func subStats(a, b ftl.Stats) ftl.Stats {
	return ftl.Stats{
		UserReadPages:  a.UserReadPages - b.UserReadPages,
		UserWritePages: a.UserWritePages - b.UserWritePages,
		UserTrimPages:  a.UserTrimPages - b.UserTrimPages,
		UserPrograms:   a.UserPrograms - b.UserPrograms,
		InlineDupHits:  a.InlineDupHits - b.InlineDupHits,
		GCInvocations:  a.GCInvocations - b.GCInvocations,
		BlocksErased:   a.BlocksErased - b.BlocksErased,
		PagesMigrated:  a.PagesMigrated - b.PagesMigrated,
		GCReads:        a.GCReads - b.GCReads,
		GCDupDropped:   a.GCDupDropped - b.GCDupDropped,
		Promotions:     a.Promotions - b.Promotions,
		Demotions:      a.Demotions - b.Demotions,
		FutileGC:       a.FutileGC - b.FutileGC,
		IdleGCWindows:  a.IdleGCWindows - b.IdleGCWindows,
		IdleGCCollects: a.IdleGCCollects - b.IdleGCCollects,
		WLSwaps:        a.WLSwaps - b.WLSwaps,
		BadBlocks:      a.BadBlocks - b.BadBlocks,
		HashOps:        a.HashOps - b.HashOps,
	}
}
