package cagc

// Fleet-scale execution at the harness level. RunFleet simulates a
// whole population of SSDs — thousands of devices sharing one scheme
// and workload, individually perturbed (measured seed, utilization
// skew class, GC-watermark stagger class, diurnal arrival phase) — over
// the shared worker pool, and merges the per-device results into one
// deterministic fleet report: latency/WA/erase distributions and the
// straggler ranking. The merge is byte-identical at any worker count
// (see internal/fleet); wall-clock facts live on FleetRun, outside the
// deterministic Result, exactly like the batch report splits them.
//
// Warm state is shared with everything else in the process: each
// device class resolves its snapshot through the keyed registry
// (singleflight, LRU), so a fleet pays UtilClasses × StaggerClasses
// preconditioning fills at most — and zero when a sweep already built
// them.

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"cagc/internal/fleet"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// FleetResult is the deterministic fleet aggregate (re-exported from
// internal/fleet): distributions, stragglers, per-device summaries.
type FleetResult = fleet.Result

// FleetParams scales a fleet execution. The zero value of every field
// except Devices picks a sensible default.
type FleetParams struct {
	// Devices is the fleet size (required).
	Devices int
	// Workers bounds the worker pool (default GOMAXPROCS). Never
	// changes results.
	Workers int
	// FleetSeed seeds the order-free per-device derivation streams
	// (default: the run Params' seed).
	FleetSeed int64
	// UtilSpread spreads device utilizations evenly across UtilClasses
	// class centers in [base-UtilSpread/2, base+UtilSpread/2]. Each
	// class is one warm snapshot. Zero disables skew.
	UtilSpread float64
	// UtilClasses is the number of utilization classes (default 4 when
	// UtilSpread > 0).
	UtilClasses int
	// StaggerClasses desynchronizes GC across the fleet: watermarks
	// offset by 1.5 free blocks per class, the array layer's staggered-
	// GC step. Default 1 (coordinated watermarks).
	StaggerClasses int
	// Diurnal scales each device's mean inter-arrival time by a factor
	// in [1-Diurnal/2, 1+Diurnal/2] (per-device phase of a diurnal load
	// curve). Zero disables it.
	Diurnal float64
	// TopK is the straggler-ranking depth (default 10).
	TopK int
}

// FleetRun pairs the deterministic fleet Result with the wall-clock
// facts of this particular execution. Only Result is byte-comparable
// across runs; throughput and worker count describe the machine.
type FleetRun struct {
	Result  *FleetResult
	Workers int           // worker count actually used
	Wall    time.Duration // wall clock including snapshot builds
}

// DevicesPerSec is the fleet execution rate — the headline number the
// substrate trajectory tracks for fleet mode.
func (f *FleetRun) DevicesPerSec() float64 {
	if f.Wall <= 0 {
		return 0
	}
	return float64(f.Result.Devices) / f.Wall.Seconds()
}

// AggregateEventsPerSec is total simulated events over wall clock —
// the machine-level throughput, comparable to the batch aggregate.
func (f *FleetRun) AggregateEventsPerSec() float64 {
	if f.Wall <= 0 {
		return 0
	}
	return float64(f.Result.Events) / f.Wall.Seconds()
}

// RunFleet simulates a fleet of fp.Devices SSDs running scheme s on
// workload w, per-device perturbed, and returns the merged report.
func RunFleet(w Workload, s Scheme, policy string, p Params, fp FleetParams) (*FleetRun, error) {
	p = p.withDefaults()
	fc, err := fleetConfig(w, s, policy, p, fp)
	if err != nil {
		return nil, err
	}
	if !p.ColdStart {
		// Resolve class snapshots through the process-wide registry so
		// fleets share warm state with sweeps and batches. ColdStart
		// leaves Snapshots nil: the fleet still builds per-class
		// snapshots (its architecture needs them) but retains nothing.
		fc.Snapshots = func(ccfg sim.Config, cspec trace.Spec) (*sim.Snapshot, error) {
			return warmSnapshot(ccfg, cspec, p.Seed)
		}
	}
	start := time.Now()
	res, err := fleet.Run(fc)
	if err != nil {
		return nil, err
	}
	return &FleetRun{Result: res, Workers: fc.Workers, Wall: time.Since(start)}, nil
}

// fleetConfig is the normalised fleet.Config RunFleet runs: every fleet
// default applies here, in fleet.Config.Normalize, so the fleet identity
// (fleetKey) is computed from exactly what runs. p must carry defaults.
func fleetConfig(w Workload, s Scheme, policy string, p Params, fp FleetParams) (fleet.Config, error) {
	cfg, spec, err := buildRun(w, s.Options(), policy, p)
	if err != nil {
		return fleet.Config{}, err
	}
	if fp.FleetSeed == 0 {
		fp.FleetSeed = p.Seed
	}
	return fleet.Config{
		Devices:        fp.Devices,
		Workers:        fp.Workers,
		Seed:           fp.FleetSeed,
		Base:           cfg,
		Spec:           spec,
		UtilSpread:     fp.UtilSpread,
		UtilClasses:    fp.UtilClasses,
		StaggerClasses: fp.StaggerClasses,
		Diurnal:        fp.Diurnal,
		TopK:           fp.TopK,
		Tracer:         p.Trace,
	}.Normalize()
}

// WriteFleetJSON writes the deterministic fleet report as indented
// JSON. The document depends only on the fleet configuration — never
// on worker count or wall clock — so tests pin it across parallelism
// levels.
func WriteFleetJSON(w io.Writer, r *FleetResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// FprintFleet renders the human-readable fleet report, including the
// wall-clock facts of this execution.
func FprintFleet(w io.Writer, fr *FleetRun) {
	r := fr.Result
	fmt.Fprintf(w, "fleet: %d devices  seed %d  classes %d util x %d stagger\n",
		r.Devices, r.Seed, r.UtilClasses, r.StaggerClasses)
	fmt.Fprintf(w, "wall %v  %d workers  %.1f devices/s  %.0f events/s aggregate\n",
		fr.Wall.Round(time.Millisecond), fr.Workers, fr.DevicesPerSec(), fr.AggregateEventsPerSec())
	fmt.Fprintf(w, "requests %d  events %d\n\n", r.Requests, r.Events)

	lat := func(name string, d fleet.LatencyDist) {
		fmt.Fprintf(w, "%-14s n=%-9d p50 %-9v p99 %-9v p99.9 %-9v max %v\n",
			name, d.Count, d.P50, d.P99, d.P999, d.Max)
	}
	lat("latency", r.Latency)
	lat("read", r.ReadLatency)
	lat("write", r.WriteLatency)

	dist := func(name string, d fleet.DeviceDist, f string) {
		fmt.Fprintf(w, "%-14s min "+f+"  p50 "+f+"  p99 "+f+"  max "+f+"  spread "+f+"\n",
			name, d.Min, d.P50, d.P99, d.Max, d.Spread)
	}
	fmt.Fprintf(w, "\nper-device distributions (%d devices):\n", r.Devices)
	dist("WA", r.WA, "%-8.3f")
	dist("erases", r.Erases, "%-8.0f")
	dist("p99 (ns)", r.DeviceP99, "%-8.0f")

	fmt.Fprintf(w, "\nstragglers (top %d by device p99):\n", len(r.Stragglers))
	for _, d := range r.Stragglers {
		fmt.Fprintf(w, "  device %-6d p99 %-10v WA %-6.3f erases %-5d util %.3f (class %d, stagger %d)\n",
			d.ID, d.P99, d.WA, d.Erases, d.Utilization, d.UtilClass, d.StaggerClass)
	}
}
