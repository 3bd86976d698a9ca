package serve

// Job vocabulary: what a submission says, what it resolves to, and the
// canonical cache identity of each job kind. Specs reuse the harness
// surfaces verbatim — cagc.Params and cagc.FleetParams are the JSON
// bodies, so a curl submission and a Go caller write the same fields —
// and resolution applies exactly the defaults the CLI applies, so a
// service job and a cagcsim invocation with the same flags share one
// ConfigKey.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"cagc"
)

// Job kinds.
const (
	KindRun   = "run"   // one simulation (the default)
	KindBatch = "batch" // one run per explicit seed, batched execution
	KindSweep = "sweep" // seed sweep: Count runs at seeds Seed..Seed+Count-1
	KindFleet = "fleet" // fleet-scale population, merged report
)

// JobSpec is the JSON body of POST /v1/jobs. Zero fields take the
// CLI's defaults (workload Mail, scheme cagc, policy greedy, canonical
// Params). Params.Trace and Params.Ctx must stay unset — tracing is
// requested with the Trace flag here, deadlines with TimeoutMs.
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

	// Fleet configures the fleet kind. ShardSize and Workers are
	// scheduling facts and excluded from the job's cache identity.
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

// resolvedJob is a validated spec with defaults applied and the cache
// identity computed.
type resolvedJob struct {
	kind     string
	workload cagc.Workload
	scheme   cagc.Scheme
	policy   string
	params   cagc.Params
	seeds    []int64 // batch and sweep kinds
	fleet    cagc.FleetParams
	timeout  time.Duration
	trace    bool
	key      string // canonical cache identity of the whole job
}

// maxJobRuns caps the runs one job fans out to: a sweep's count, a
// batch's seeds, a fleet's devices. resolve allocates and hashes per
// run inside the HTTP handler, before admission, so the cap is checked
// first — a 40-byte sweep spec could otherwise ask for a billion.
const maxJobRuns = 4096

// resolve validates spec and computes its identity. defTimeout applies
// when the spec names none; maxTimeout (when positive) caps it.
func (spec JobSpec) resolve(defTimeout, maxTimeout time.Duration) (*resolvedJob, error) {
	runs := max(spec.Count, len(spec.Seeds))
	if spec.Fleet != nil {
		runs = max(runs, spec.Fleet.Devices)
	}
	if runs > maxJobRuns {
		return nil, fmt.Errorf("job fans out to %d runs (count/seeds/fleet.Devices), limit %d", runs, maxJobRuns)
	}
	r := &resolvedJob{kind: spec.Kind, policy: spec.Policy, params: spec.Params, trace: spec.Trace}
	if r.kind == "" {
		r.kind = KindRun
	}
	switch r.kind {
	case KindRun, KindBatch, KindSweep, KindFleet:
	default:
		return nil, fmt.Errorf("unknown job kind %q (want run, batch, sweep, or fleet)", r.kind)
	}
	if spec.Params.Trace != nil || spec.Params.Ctx != nil {
		return nil, fmt.Errorf("params.Trace/params.Ctx cannot be set on submissions (use trace/timeout_ms)")
	}

	name := spec.Workload
	if name == "" {
		name = string(cagc.Mail)
	}
	found := false
	for _, w := range cagc.Workloads {
		if strings.EqualFold(string(w), name) {
			r.workload, found = w, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, cagc.Workloads)
	}

	schemeName := spec.Scheme
	if schemeName == "" {
		schemeName = "cagc"
	}
	s, err := cagc.ParseScheme(schemeName)
	if err != nil {
		return nil, err
	}
	r.scheme = s
	if r.policy == "" {
		r.policy = "greedy"
	}
	if err := cagc.ValidatePolicy(r.policy); err != nil {
		return nil, err
	}
	if r.params.DeviceBytes < 0 || r.params.Requests < 0 {
		return nil, fmt.Errorf("negative device_bytes/requests")
	}

	switch {
	case spec.TimeoutMs < 0:
		return nil, fmt.Errorf("timeout_ms %d: cannot be negative", spec.TimeoutMs)
	case spec.TimeoutMs > 0:
		r.timeout = time.Duration(spec.TimeoutMs) * time.Millisecond
	default:
		r.timeout = defTimeout
	}
	if maxTimeout > 0 && (r.timeout == 0 || r.timeout > maxTimeout) {
		r.timeout = maxTimeout
	}

	switch r.kind {
	case KindRun:
		if len(spec.Seeds) > 0 || spec.Count > 0 || spec.Fleet != nil {
			return nil, fmt.Errorf("run jobs take no seeds/count/fleet")
		}
		r.key = cagc.ConfigKey(r.workload, r.scheme, r.policy, r.params)
	case KindBatch:
		if len(spec.Seeds) == 0 {
			return nil, fmt.Errorf("batch jobs need a non-empty seeds list")
		}
		if spec.Count > 0 || spec.Fleet != nil {
			return nil, fmt.Errorf("batch jobs take no count/fleet")
		}
		r.seeds = spec.Seeds
		r.key = r.seedsKey()
	case KindSweep:
		if spec.Count <= 0 {
			return nil, fmt.Errorf("sweep jobs need count > 0")
		}
		if len(spec.Seeds) > 0 || spec.Fleet != nil {
			return nil, fmt.Errorf("sweep jobs take no seeds/fleet (count generates them)")
		}
		base := r.params.Seed
		if base == 0 {
			base = 1
		}
		r.seeds = make([]int64, spec.Count)
		for i := range r.seeds {
			r.seeds[i] = base + int64(i)
		}
		// A sweep and the equivalent explicit batch are the same job, so
		// they share one cache entry.
		r.key = r.seedsKey()
	case KindFleet:
		if spec.Fleet == nil || spec.Fleet.Devices <= 0 {
			return nil, fmt.Errorf("fleet jobs need fleet.Devices > 0")
		}
		if len(spec.Seeds) > 0 || spec.Count > 0 {
			return nil, fmt.Errorf("fleet jobs take no seeds/count")
		}
		if r.trace {
			return nil, fmt.Errorf("fleet jobs cannot be traced per-request (the fleet trace covers shards; submit kind=run to trace one device)")
		}
		r.fleet = *spec.Fleet
		r.key = r.fleetKey()
	}
	if r.trace && r.kind != KindRun {
		return nil, fmt.Errorf("trace applies to run jobs only (a %s times many runs)", r.kind)
	}
	return r, nil
}

// seedsKey is the batch/sweep identity: the hash of every member run's
// ConfigKey, in seed order. Composite and canonical — two batches with
// the same resolved members are the same job.
func (r *resolvedJob) seedsKey() string {
	var b strings.Builder
	b.WriteString("cagc-batch-v1")
	for _, seed := range r.seeds {
		q := r.params
		q.Seed = seed
		b.WriteByte('|')
		b.WriteString(cagc.ConfigKey(r.workload, r.scheme, r.policy, q))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// fleetKey is the fleet identity: the base run's ConfigKey plus every
// output-affecting fleet field, normalized exactly as RunFleet
// normalizes them. ShardSize and Workers are scheduling granularity —
// the fleet JSON is byte-identical across both, so they stay out.
func (r *resolvedJob) fleetKey() string {
	fp := r.fleet
	if fp.FleetSeed == 0 {
		// RunFleet defaults the fleet seed to the run seed (itself 1 when
		// unset).
		if fp.FleetSeed = r.params.Seed; fp.FleetSeed == 0 {
			fp.FleetSeed = 1
		}
	}
	if fp.UtilSpread > 0 && fp.UtilClasses == 0 {
		fp.UtilClasses = 4
	}
	if fp.UtilSpread == 0 {
		fp.UtilClasses = 0
	}
	if fp.StaggerClasses == 0 {
		fp.StaggerClasses = 1
	}
	if fp.TopK == 0 {
		fp.TopK = 10
	}
	material := fmt.Sprintf(
		"cagc-fleet-v1|run=%s|devices=%d|fleet_seed=%d|util_spread=%g|util_classes=%d|"+
			"stagger_classes=%d|diurnal=%g|topk=%d",
		cagc.ConfigKey(r.workload, r.scheme, r.policy, r.params),
		fp.Devices, fp.FleetSeed, fp.UtilSpread, fp.UtilClasses,
		fp.StaggerClasses, fp.Diurnal, fp.TopK)
	sum := sha256.Sum256([]byte(material))
	return hex.EncodeToString(sum[:])
}
