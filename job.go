package cagc

// Job vocabulary: the one description of a simulation job that every
// front end speaks. cagcsim maps its flags onto a Job, the serving layer
// decodes its JSON into one, and both call Resolve (every default, every
// bound, the canonical identity) and Execute (run the kind, render its
// deterministic document and its text report). A default or a bound
// therefore lives in exactly one place, and the CLI and the service
// cannot disagree on either.

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"time"

	"cagc/internal/ftl"
	"cagc/internal/trace"
)

// Job kinds.
const (
	KindRun      = "run"      // one simulation (the default)
	KindBatch    = "batch"    // one run per explicit seed
	KindSweep    = "sweep"    // Count runs at seeds Seed..Seed+Count-1
	KindFleet    = "fleet"    // a per-device-perturbed population, merged report
	KindArray    = "array"    // one multi-SSD volume
	KindReplay   = "replay"   // a trace file through one device
	KindScenario = "scenario" // several tenants sharing one device
)

var kinds = []string{KindRun, KindBatch, KindSweep, KindFleet, KindArray, KindReplay, KindScenario}

// fleetRequests is a fleet's default per-device request count: fleet
// scale trades per-device depth for breadth.
const fleetRequests = 2000

// Job describes one simulation job. Zero fields take their defaults:
// kind run, workload Mail, scheme cagc, policy greedy, and Params'
// documented defaults (except that a fleet device replays 2 000
// requests). Each kind reads only its own inputs below; Resolve refuses
// another kind's input rather than ignoring it.
type Job struct {
	Kind     string
	Workload string // case-insensitive (see ParseWorkload)
	Scheme   string
	Policy   string
	Params   Params

	// Seeds lists a batch's runs, one per seed, all other parameters
	// shared; Count is a sweep's length.
	Seeds []int64
	Count int
	// Workers bounds a batch or sweep's worker pool (0 = GOMAXPROCS).
	// Scheduling only: it never changes a document.
	Workers int

	Fleet *FleetParams // the fleet kind (Devices required)
	Array *ArrayParams // the array kind

	// ReplayPath is the replay kind's trace file and Replay tunes its
	// ingestion (Execute reports its own Stats in Outcome.Facts).
	ReplayPath string
	Replay     ReplayFileOptions

	Scenario *ScenarioParams // the scenario kind
}

// ResolvedJob is a Job with every default applied, every bound checked
// and its identity computed. Callers may set Params.Ctx and Params.Trace
// before Execute (array jobs refuse both); neither enters the identity.
type ResolvedJob struct {
	Kind     string
	Workload Workload
	Scheme   Scheme
	Policy   string
	Params   Params  // defaults applied
	Seeds    []int64 // batch and sweep: one run per seed, in order
	// Key is the canonical identity (ConfigKey, or the batch and fleet
	// composites of key.go); empty for the kinds that have none (array,
	// replay, scenario).
	Key string

	job  Job      // the kind's own inputs
	keys []string // batch and sweep: each member's ConfigKey
}

// bound is one named integer input that cannot be negative.
type bound struct {
	name string
	v    int64
}

// nonNegative names the first negative input.
func nonNegative(bs ...bound) error {
	for _, b := range bs {
		if b.v < 0 {
			return fmt.Errorf("%s %d: cannot be negative", b.name, b.v)
		}
	}
	return nil
}

// check refuses the Params out of range, naming the first such field.
// p must carry defaults, so a zero field is its default. Every entry
// mode checks through buildRun; Resolve checks before anything runs.
func (p Params) check() error {
	if err := nonNegative(
		bound{"Params.DeviceBytes", p.DeviceBytes},
		bound{"Params.Requests", int64(p.Requests)},
		bound{"Params.QueueDepth", int64(p.QueueDepth)},
		bound{"Params.BufferPages", int64(p.BufferPages)},
		bound{"Params.RefThreshold", int64(p.RefThreshold)},
		bound{"Params.WearLevelThreshold", int64(p.WearLevelThreshold)},
		bound{"Params.IndexCapacity", int64(p.IndexCapacity)},
		bound{"Params.MappingCache", int64(p.MappingCache)},
		bound{"Params.EraseLimit", int64(p.EraseLimit)},
	); err != nil {
		return err
	}
	if u := p.Utilization; !(u > 0 && u < 1) { // written so NaN fails
		return fmt.Errorf("Params.Utilization %g: must be in (0, 1)", u)
	}
	return nil
}

// Resolve applies every default, checks every bound and computes the
// job's identity. It has no side effects, so a front end rejects a bad
// job before it commits anything (profile files, a queue slot).
func (j Job) Resolve() (*ResolvedJob, error) {
	r := &ResolvedJob{Kind: cmp.Or(j.Kind, KindRun), Policy: cmp.Or(j.Policy, "greedy")}
	if !slices.Contains(kinds, r.Kind) {
		return nil, fmt.Errorf("unknown job kind %q (want one of %v)", r.Kind, kinds)
	}
	for _, in := range []struct {
		kind, name string
		set        bool
	}{
		{KindBatch, "Seeds", len(j.Seeds) > 0},
		{KindSweep, "Count", j.Count != 0},
		{KindFleet, "Fleet", j.Fleet != nil},
		{KindArray, "Array", j.Array != nil},
		{KindReplay, "ReplayPath", j.ReplayPath != ""},
		{KindScenario, "Scenario", j.Scenario != nil},
	} {
		if in.set && in.kind != r.Kind {
			return nil, fmt.Errorf("%s belongs to %s jobs, not %s", in.name, in.kind, r.Kind)
		}
	}

	var err error
	if r.Workload, err = ParseWorkload(cmp.Or(j.Workload, string(Mail))); err != nil {
		return nil, err
	}
	if r.Scheme, err = ParseScheme(cmp.Or(j.Scheme, "cagc")); err != nil {
		return nil, err
	}
	pol, err := ftl.PolicyByName(r.Policy, 1)
	if err != nil {
		return nil, err
	}
	r.Policy = pol.Name() // an alias must not fork the identity
	p := j.Params
	if r.Kind == KindFleet && p.Requests == 0 {
		p.Requests = fleetRequests
	}
	// Bounds apply after the defaults, so a zero field is its default.
	r.Params = p.withDefaults()
	if err := r.Params.check(); err != nil {
		return nil, err
	}
	if err := nonNegative(bound{"Workers", int64(j.Workers)}); err != nil {
		return nil, err
	}

	switch r.Kind {
	case KindRun:
		r.Key = ConfigKey(r.Workload, r.Scheme, r.Policy, r.Params)
	case KindBatch, KindSweep:
		if r.Params.Trace != nil {
			return nil, fmt.Errorf("Params.Trace: a %s times many runs; trace one", r.Kind)
		}
		r.Seeds = j.Seeds
		if r.Kind == KindSweep {
			if j.Count <= 0 {
				return nil, fmt.Errorf("sweep jobs need Count > 0, got %d", j.Count)
			}
			// Seeds count from the defaulted base, so a sweep from seed 0
			// runs seeds 1, 2, ... exactly like the equivalent batch.
			r.Seeds = make([]int64, j.Count)
			for i := range r.Seeds {
				r.Seeds[i] = r.Params.Seed + int64(i)
			}
		} else if len(r.Seeds) == 0 {
			return nil, fmt.Errorf("batch jobs need a non-empty Seeds list")
		}
		r.Key, r.keys = seedsKey(r.Workload, r.Scheme, r.Policy, r.Params, r.Seeds)
	case KindFleet:
		if j.Fleet == nil || j.Fleet.Devices <= 0 {
			return nil, fmt.Errorf("fleet jobs need Fleet.Devices > 0")
		}
		fp := *j.Fleet
		if err := nonNegative(
			bound{"Fleet.Workers", int64(fp.Workers)},
			bound{"Fleet.UtilClasses", int64(fp.UtilClasses)},
			bound{"Fleet.StaggerClasses", int64(fp.StaggerClasses)},
			bound{"Fleet.TopK", int64(fp.TopK)},
		); err != nil {
			return nil, err
		}
		fc, err := fleetConfig(r.Workload, r.Scheme, r.Policy, r.Params, fp)
		if err != nil {
			return nil, err
		}
		r.Key = fleetKey(ConfigKey(r.Workload, r.Scheme, r.Policy, r.Params), fc)
		j.Fleet = &fp
	case KindArray:
		if r.Policy != "greedy" {
			return nil, fmt.Errorf("array: Policy %q is not supported (array members run greedy)", r.Policy)
		}
		if j.Array == nil {
			return nil, fmt.Errorf("array jobs need an Array")
		}
		if err := j.Array.check(r.Params); err != nil {
			return nil, err
		}
	case KindReplay:
		if j.ReplayPath == "" {
			return nil, fmt.Errorf("replay jobs need a ReplayPath")
		}
		if _, err := trace.ParseFormat(j.Replay.Format); err != nil {
			return nil, err
		}
	case KindScenario:
		if j.Scenario == nil {
			return nil, fmt.Errorf("scenario jobs need a Scenario")
		}
		if err := j.Scenario.check(); err != nil {
			return nil, err
		}
	}
	r.job = j
	return r, nil
}

// Label names the job in trace summaries.
func (r *ResolvedJob) Label() string {
	what := string(r.Workload)
	switch r.Kind {
	case KindFleet:
		what = fmt.Sprintf("fleet %d x %s", r.job.Fleet.Devices, r.Workload)
	case KindReplay:
		what = "replay " + r.job.ReplayPath
	case KindScenario:
		what = ScenarioLabel(r.job.Scenario.Tenants)
	}
	return fmt.Sprintf("%s x %s x %s", what, r.Scheme, r.Policy)
}

// Outcome is one executed job, rendered.
type Outcome struct {
	// Doc is the deterministic document: it depends only on the resolved
	// job, never on worker counts or wall clock.
	Doc []byte
	// Report is the human-readable report; batch and fleet reports carry
	// this execution's wall clock.
	Report string
	// Facts is one line of wall-clock facts no document carries — batch
	// and fleet throughput, a file replay's ingestion counters — or "".
	Facts string
	// Events counts the simulated events the job retired (0 for an
	// array, whose layer does not count them).
	Events uint64
}

// Execute runs the resolved job and renders it.
func (r *ResolvedJob) Execute() (*Outcome, error) {
	var (
		o        Outcome
		doc, rep bytes.Buffer
		res      *Result // run, replay, scenario
		err      error
	)
	switch r.Kind {
	case KindRun:
		res, err = Run(r.Workload, r.Scheme, r.Policy, r.Params)
		fmt.Fprintf(&rep, "%s\n\n", TableIString(r.Params))
	case KindBatch, KindSweep:
		b := RunBatch(SeedBatch(r.Workload, r.Scheme, r.Policy, r.Params, r.Seeds), r.job.Workers)
		if err := b.Err(); err != nil {
			return nil, fmt.Errorf("batch: %d completed, %d failed, %d skipped; first failure: %w",
				b.Completed(), b.Failed(), b.Skipped(), err)
		}
		// One document per run in seed order, each stamped with its
		// member's key: exactly the single runs' documents concatenated.
		for i, res := range b.Results {
			if err = WriteJSONKey(&doc, res, r.keys[i]); err != nil {
				break
			}
		}
		o.Events = b.Events
		o.Facts = fmt.Sprintf("batch: %d runs x %s x %s x %s, %d workers, wall %v, aggregate %.0f events/s\n",
			len(r.Seeds), r.Workload, r.Scheme, r.Policy, b.Workers, b.Wall.Round(time.Millisecond), b.AggregateEventsPerSec())
		rep.WriteString(o.Facts)
	case KindFleet:
		var fr *FleetRun
		if fr, err = RunFleet(r.Workload, r.Scheme, r.Policy, r.Params, *r.job.Fleet); err == nil {
			err = WriteFleetJSON(&doc, fr.Result)
			FprintFleet(&rep, fr)
			o.Events = fr.Result.Events
			o.Facts = fmt.Sprintf("fleet: %d devices, %d workers, wall %v, %.1f devices/s, %.0f events/s\n",
				fr.Result.Devices, fr.Workers, fr.Wall.Round(time.Millisecond),
				fr.DevicesPerSec(), fr.AggregateEventsPerSec())
		}
	case KindArray:
		var a *ArrayResult
		if a, err = RunArray(r.Workload, r.Scheme, r.Params, *r.job.Array); err == nil {
			err = WriteArrayJSON(&doc, a)
			FprintArray(&rep, a)
		}
	case KindReplay:
		var st TraceStreamStats
		opts := r.job.Replay
		opts.Stats = &st
		res, err = ReplayFile(r.job.ReplayPath, r.Workload, r.Scheme, r.Policy, r.Params, opts)
		o.Facts = fmt.Sprintf("ingest: %d requests in %d chunks, %d stalls (ratio %.3f), peak reader %d bytes\n",
			st.Requests, st.Chunks, st.Stalls, st.StallRatio(), st.PeakLiveBytes)
	case KindScenario:
		res, err = RunScenario(r.Scheme, r.Policy, r.Params, *r.job.Scenario)
	}
	if err == nil && res != nil {
		// Key is empty for a file replay or a scenario, and the document
		// then omits it.
		err = WriteJSONKey(&doc, res, r.Key)
		FprintResult(&rep, res)
		o.Events = EventsOf(res)
	}
	if err != nil {
		return nil, err
	}
	o.Doc, o.Report = doc.Bytes(), rep.String()
	return &o, nil
}
