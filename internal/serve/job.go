package serve

// The wire form of a job. A submission decodes into JobSpec, whose
// fields are the shared cagc.Job vocabulary under their wire names.
// admit applies only what is the service's own — the fan-out cap, the
// kinds it serves, the trace flag and the deadline — and hands the rest
// to cagc.Job.Resolve, so a service job and a cagcsim invocation get one
// set of defaults, one set of bounds and one ConfigKey.

import (
	"fmt"
	"slices"
	"time"

	"cagc"
)

// Job kinds the service admits: those with a canonical identity (the
// result cache keys on it) that read no file.
const (
	KindRun   = cagc.KindRun   // one simulation (the default)
	KindBatch = cagc.KindBatch // one run per explicit seed, batched execution
	KindSweep = cagc.KindSweep // seed sweep: Count runs at seeds Seed..Seed+Count-1
	KindFleet = cagc.KindFleet // fleet-scale population, merged report
)

var kinds = []string{KindRun, KindBatch, KindSweep, KindFleet}

// JobSpec is the JSON body of POST /v1/jobs. Zero fields take the
// kind's defaults, the same ones cagcsim applies (see cagc.Job).
// Params.Trace and Params.Ctx must stay unset — tracing is requested
// with the Trace flag here, deadlines with TimeoutMs.
type JobSpec struct {
	Kind     string      `json:"kind,omitempty"`
	Workload string      `json:"workload,omitempty"`
	Scheme   string      `json:"scheme,omitempty"`
	Policy   string      `json:"policy,omitempty"`
	Params   cagc.Params `json:"params"`

	// Seeds is the batch kind's run list (one run per seed, all other
	// parameters shared); Count is the sweep kind's length.
	Seeds []int64 `json:"seeds,omitempty"`
	Count int     `json:"count,omitempty"`

	// Fleet configures the fleet kind. Workers is a scheduling fact and
	// excluded from the job's cache identity.
	Fleet *cagc.FleetParams `json:"fleet,omitempty"`

	// TimeoutMs bounds the job's execution wall clock; 0 takes the
	// server's default. The run fails with a timeout status once
	// exceeded — there are no partial results.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`

	// Trace records a Chrome trace of the run, fetchable at
	// /v1/jobs/{id}/trace. Traced submissions always execute (the
	// recording is the point) but still populate the result cache —
	// tracing never changes the result document.
	Trace bool `json:"trace,omitempty"`
}

// maxJobRuns caps the runs one job fans out to: a sweep's count, a
// batch's seeds, a fleet's devices. Resolving allocates and hashes per
// run inside the HTTP handler, before admission, so the cap is checked
// first — a 40-byte sweep spec could otherwise ask for a billion.
const maxJobRuns = 4096

// admit checks what is the service's own and resolves the rest through
// the shared vocabulary. It returns the resolved job and its deadline:
// defTimeout applies when the spec names none, and maxTimeout (when
// positive) caps it.
func (spec JobSpec) admit(defTimeout, maxTimeout time.Duration) (*cagc.ResolvedJob, time.Duration, error) {
	runs := max(spec.Count, len(spec.Seeds))
	if spec.Fleet != nil {
		runs = max(runs, spec.Fleet.Devices)
	}
	if runs > maxJobRuns {
		return nil, 0, fmt.Errorf("job fans out to %d runs (count/seeds/fleet.Devices), limit %d", runs, maxJobRuns)
	}
	if spec.Kind != "" && !slices.Contains(kinds, spec.Kind) {
		return nil, 0, fmt.Errorf("unknown job kind %q (want one of %v)", spec.Kind, kinds)
	}
	if spec.Params.Trace != nil || spec.Params.Ctx != nil {
		return nil, 0, fmt.Errorf("params.Trace/params.Ctx cannot be set on submissions (use trace/timeout_ms)")
	}
	if spec.Trace && spec.Kind != "" && spec.Kind != KindRun {
		return nil, 0, fmt.Errorf("trace applies to run jobs only (a %s job runs many simulations; submit kind=run to trace one)", spec.Kind)
	}
	timeout := defTimeout
	switch {
	case spec.TimeoutMs < 0:
		return nil, 0, fmt.Errorf("timeout_ms %d: cannot be negative", spec.TimeoutMs)
	case spec.TimeoutMs > 0:
		timeout = time.Duration(spec.TimeoutMs) * time.Millisecond
	}
	if maxTimeout > 0 && (timeout == 0 || timeout > maxTimeout) {
		timeout = maxTimeout
	}
	r, err := cagc.Job{
		Kind:     spec.Kind,
		Workload: spec.Workload,
		Scheme:   spec.Scheme,
		Policy:   spec.Policy,
		Params:   spec.Params,
		Seeds:    spec.Seeds,
		Count:    spec.Count,
		Fleet:    spec.Fleet,
	}.Resolve()
	return r, timeout, err
}
