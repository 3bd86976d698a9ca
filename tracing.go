package cagc

// Tracing facade. The observability subsystem lives in internal/obs;
// this file re-exports the pieces a harness needs to trace a run: a
// recorder to pass as Params.Trace, the Chrome trace_event exporter,
// and the per-phase GC attribution summary. The overhead contract is
// zero-cost-when-off: a nil recorder is tracing off, and every
// instrumentation point then costs one predicted branch and allocates
// nothing.

import (
	"io"

	"cagc/internal/obs"
)

// TraceRecorder buffers trace events in memory for export. Pass one as
// Params.Trace; leave nil for an untraced run.
type TraceRecorder = obs.Recorder

// TraceSummary is the aggregate view of one recorded trace: latency
// percentiles, per-phase GC time attribution, fingerprint/erase overlap
// ratio, and per-die utilization.
type TraceSummary = obs.Summary

// NewTraceRecorder returns an unbounded recorder (chunked arena; one
// allocation per 4096 events).
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// NewFlightRecorder returns a bounded recorder keeping only the last n
// events — the flight-recorder mode for long preconditioning runs.
func NewFlightRecorder(n int) *TraceRecorder { return obs.NewFlightRecorder(n) }

// WriteChromeTrace exports the recorded events as Chrome trace_event
// JSON, loadable in chrome://tracing and Perfetto. Output is
// deterministic: the same run produces byte-identical JSON.
func WriteChromeTrace(w io.Writer, r *TraceRecorder) error { return obs.WriteChrome(w, r) }

// SummarizeTrace aggregates the recorded events.
func SummarizeTrace(r *TraceRecorder) *TraceSummary { return obs.Summarize(r) }
