package cagc

// Public trace surface: generate content-annotated workloads, persist
// them in the binary trace format, and replay arbitrary traces through
// any scheme. This is how a downstream user runs their own traces
// (anything that can be converted to per-page content fingerprints)
// instead of the built-in FIU-calibrated presets.

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"

	"cagc/internal/ftl"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// TraceSpec parameterizes a synthetic workload; see the field docs in
// internal/trace.Spec. WorkloadSpec builds one from a Table-II preset.
type TraceSpec = trace.Spec

// TraceRequest is one host I/O with per-page content fingerprints.
type TraceRequest = trace.Request

// TraceSource is a stream of requests in arrival order. A request's
// FPs is valid only until the source's next Next; copy it to keep it.
type TraceSource = trace.Source

// TraceStreamStats reports a file replay's ingestion behaviour —
// chunks decoded ahead, ring stalls, peak reader-side live bytes.
type TraceStreamStats = trace.StreamStats

// LogicalPagesFor returns the logical address-space size a device built
// from p exports; workload specs must target exactly this size.
func LogicalPagesFor(p Params) (uint64, error) {
	spec, err := WorkloadSpec(Homes, p)
	return spec.LogicalPages, err
}

// WorkloadSpec returns the Table-II-calibrated spec for w sized to the
// device described by p.
func WorkloadSpec(w Workload, p Params) (TraceSpec, error) {
	_, spec, err := buildRun(w, ftl.BaselineOptions(), "greedy", p.withDefaults())
	return spec, err
}

// NewTraceGenerator streams the synthetic workload described by spec.
func NewTraceGenerator(spec TraceSpec) (TraceSource, error) {
	return trace.NewGenerator(spec)
}

// WriteTraceFile saves a request stream to path in the compact binary
// trace format and returns the number of requests written. A ".gz"
// suffix selects transparent gzip compression.
func WriteTraceFile(path string, src TraceSource) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var sink io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		sink = gz
	}
	w, err := trace.NewWriter(sink)
	if err != nil {
		return 0, err
	}
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(r); err != nil {
			return w.Count(), err
		}
	}
	if err := w.Flush(); err != nil {
		return w.Count(), err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return w.Count(), err
		}
	}
	return w.Count(), f.Close()
}

// ReplayFileOptions tunes ReplayFile's ingestion pipeline. The zero
// value sniffs the format.
type ReplayFileOptions struct {
	// Format forces a decoder: "auto" (default), "binary", "text", or
	// "fiu". Auto sniffs the bytes — gzip first, then the CAGC magic,
	// then text-vs-FIU line shape — so renamed files still replay.
	Format string
	// TimeScale compresses (<1) or stretches (>1) FIU inter-arrival
	// gaps (the raw traces span weeks); 0 means 1.0. Only the FIU
	// decoder uses it.
	TimeScale float64
	// Stats, when non-nil, receives the stream's ingestion counters
	// (chunks, stalls, peak reader-side live bytes) after the replay.
	Stats *trace.StreamStats
}

// ReplayFile replays a trace file of any supported format — binary
// CAGC container, our text format, raw FIU IODedup text, or gzip of
// any — through scheme s, streaming it with decode-ahead so the
// file is never held in memory. The device is preconditioned with the
// given workload's content mixture before measurement (pass the
// workload the trace resembles, or Homes for neutral preconditioning).
// Decode failures fail the run; a truncated file is an error, not a
// shorter workload.
func ReplayFile(path string, w Workload, s Scheme, policy string, p Params, o ReplayFileOptions) (*Result, error) {
	p = p.withDefaults()
	format, err := trace.ParseFormat(o.Format)
	if err != nil {
		return nil, err
	}
	st, closer, err := trace.OpenFile(path,
		trace.OpenOptions{Format: format, TimeScale: o.TimeScale},
		trace.StreamOptions{Tracer: p.Trace})
	if err != nil {
		return nil, fmt.Errorf("cagc: opening %s: %w", path, err)
	}
	defer closer()
	res, err := ReplayTrace(st, w, s, policy, p)
	if o.Stats != nil {
		*o.Stats = st.Stats()
	}
	if err != nil {
		return nil, fmt.Errorf("cagc: replaying %s: %w", path, err)
	}
	return res, nil
}

// ReplayTrace replays an arbitrary request stream through scheme s
// after standard preconditioning. The warm device state is served from
// the snapshot cache when available (see warmcache.go); set
// Params.ColdStart to precondition from scratch instead.
func ReplayTrace(src TraceSource, w Workload, s Scheme, policy string, p Params) (*Result, error) {
	p = p.withDefaults()
	cfg, spec, err := buildRun(w, s.Options(), policy, p)
	if err != nil {
		return nil, err
	}
	return measure(cfg, spec, p, sim.Measured{Src: src})
}
