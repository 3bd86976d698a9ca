package cagc

// Machine-readable result export. Result holds live histogram
// structures; Summary is the flattened, JSON-stable view tooling
// consumes (cagcsim -json, spreadsheet pipelines).

import (
	"encoding/json"
	"io"

	"cagc/internal/metrics"
)

// LatencySummary flattens one latency histogram.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// Summary is the JSON-stable view of a Result.
type Summary struct {
	// ConfigKey is the canonical run identity (see ConfigKey): set when
	// the producer knows the full run configuration (cagcsim -json, the
	// serving layer's result documents), empty otherwise — a Result
	// alone does not carry every identity field.
	ConfigKey string `json:"config_key,omitempty"`

	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	Policy   string `json:"policy"`

	Requests   uint64  `json:"requests"`
	DurationMs float64 `json:"duration_ms"`
	IOPS       float64 `json:"iops"`

	Latency      LatencySummary `json:"latency"`
	ReadLatency  LatencySummary `json:"read_latency"`
	WriteLatency LatencySummary `json:"write_latency"`
	GCLatency    LatencySummary `json:"gc_latency"`

	UserReadPages  uint64 `json:"user_read_pages"`
	UserWritePages uint64 `json:"user_write_pages"`
	UserTrimPages  uint64 `json:"user_trim_pages"`
	UserPrograms   uint64 `json:"user_programs"`
	InlineDupHits  uint64 `json:"inline_dup_hits"`

	GCInvocations uint64 `json:"gc_invocations"`
	IdleGCWindows uint64 `json:"idle_gc_windows"`
	BlocksErased  uint64 `json:"blocks_erased"`
	PagesMigrated uint64 `json:"pages_migrated"`
	GCReads       uint64 `json:"gc_reads"`
	GCDupDropped  uint64 `json:"gc_dup_dropped"`
	Promotions    uint64 `json:"promotions"`
	WLSwaps       uint64 `json:"wl_swaps"`
	HashOps       uint64 `json:"hash_ops"`

	WriteAmplification float64    `json:"write_amplification"`
	RefDist            [4]uint64  `json:"refdist_counts"`
	RefShares          [4]float64 `json:"refdist_shares"`
	EraseSpread        int        `json:"erase_spread"`
	FreeFraction       float64    `json:"free_fraction"`

	// Tenants is present only for multi-tenant scenario runs (see
	// RunScenario): per-tenant latency distributions and SLO-violation
	// counts, in scenario tenant order.
	Tenants []TenantSummary `json:"tenants,omitempty"`
}

// TenantSummary is the JSON-stable view of one tenant's share of a
// multi-tenant replay.
type TenantSummary struct {
	Name     string `json:"name"`
	Requests uint64 `json:"requests"`
	// SLOUs is the tenant's latency objective in microseconds (0 when
	// none was set); SLOViolations counts requests that exceeded it.
	SLOUs         float64        `json:"slo_us"`
	SLOViolations uint64         `json:"slo_violations"`
	Latency       LatencySummary `json:"latency"`
}

// latencySummary flattens one latency histogram.
func latencySummary(h *metrics.Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanUs: h.Mean() / 1000,
		P50Us:  h.Percentile(0.50).Micros(),
		P90Us:  h.Percentile(0.90).Micros(),
		P99Us:  h.Percentile(0.99).Micros(),
		P999Us: h.Percentile(0.999).Micros(),
		MaxUs:  h.Max().Micros(),
	}
}

// Summarize flattens a Result.
func Summarize(r *Result) Summary {
	var tenants []TenantSummary
	if len(r.Tenants) > 0 {
		tenants = make([]TenantSummary, len(r.Tenants))
		for i := range r.Tenants {
			t := &r.Tenants[i]
			tenants[i] = TenantSummary{
				Name:          t.Name,
				Requests:      t.Requests,
				SLOUs:         t.SLO.Micros(),
				SLOViolations: t.Violations,
				Latency:       latencySummary(&t.Latency),
			}
		}
	}
	s := r.FTL
	return Summary{
		Scheme:   r.Scheme,
		Workload: r.Workload,
		Policy:   r.Policy,

		Requests:   r.Requests,
		DurationMs: r.Duration.Millis(),
		IOPS:       r.IOPS(),

		Latency:      latencySummary(&r.Latency),
		ReadLatency:  latencySummary(&r.ReadLatency),
		WriteLatency: latencySummary(&r.WriteLatency),
		GCLatency:    latencySummary(&r.GCLatency),

		UserReadPages:  s.UserReadPages,
		UserWritePages: s.UserWritePages,
		UserTrimPages:  s.UserTrimPages,
		UserPrograms:   s.UserPrograms,
		InlineDupHits:  s.InlineDupHits,

		GCInvocations: s.GCInvocations,
		IdleGCWindows: s.IdleGCWindows,
		BlocksErased:  s.BlocksErased,
		PagesMigrated: s.PagesMigrated,
		GCReads:       s.GCReads,
		GCDupDropped:  s.GCDupDropped,
		Promotions:    s.Promotions,
		WLSwaps:       s.WLSwaps,
		HashOps:       s.HashOps,

		WriteAmplification: s.WriteAmplification(),
		RefDist:            r.RefDist,
		RefShares:          r.RefShares(),
		EraseSpread:        r.EraseSpread,
		FreeFraction:       r.FreeFraction,

		Tenants: tenants,
	}
}

// WriteJSON emits the summary as indented JSON.
func WriteJSON(w io.Writer, r *Result) error { return WriteJSONKey(w, r, "") }

// WriteJSONKey is WriteJSON with the canonical config key stamped into
// the document, so CLI output and service cache entries for the same
// configuration are cross-checkable (and byte-identical).
func WriteJSONKey(w io.Writer, r *Result, key string) error {
	s := Summarize(r)
	s.ConfigKey = key
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
