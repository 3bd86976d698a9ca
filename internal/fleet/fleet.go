// Package fleet shards thousands of simulated SSDs over the worker
// pool and merges their results deterministically — the fleet-scale
// execution mode behind `cagcsim -fleet`.
//
// Every device is an independent single-threaded simulation seeded
// from a warm snapshot clone, so the fleet inherits the per-run
// bit-identity contract. Determinism at fleet scale then rests on two
// properties this package enforces:
//
//   - Per-device derivation is order-free. Each device's perturbation
//     (measured-trace seed, utilization class, GC-watermark stagger
//     class, diurnal arrival phase) is a pure function of (fleet seed,
//     device ID) via a splitmix64-style mixer — never a shared RNG
//     stream — so no shard composition, worker schedule, or device
//     ordering can change what any device simulates.
//
//   - The merge is ordered. Workers run whole shards (contiguous device
//     ranges) and reduce each shard into a private accumulator; the
//     final merge folds shard accumulators in shard-index order after
//     the pool barrier. Every float accumulation happens in a fixed
//     order, so the fleet Result is byte-identical at any worker count.
//
// Memory stays bounded by eager reduction: a device's full Result
// (histograms, timeline) is folded into its shard accumulator and
// dropped immediately, keeping only a compact DeviceSummary; runner
// clones are recycled through the snapshot free-list, so peak clone
// residency is bounded by the worker count, not the fleet size.
package fleet

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"cagc/internal/event"
	"cagc/internal/metrics"
	"cagc/internal/obs"
	"cagc/internal/pool"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// shardSize is the number of consecutive devices one worker runs as a
// unit. It is scheduling granularity only: shards merge in index order,
// so no shard size changes a result.
const shardSize = 64

// SnapshotFunc builds (or fetches from a cache) the warm snapshot for
// one device-class configuration. The root package wires this to its
// keyed snapshot registry so fleets share warm state with sweeps; nil
// falls back to sim.NewSnapshot per class.
type SnapshotFunc func(cfg sim.Config, spec trace.Spec) (*sim.Snapshot, error)

// Config describes one fleet execution.
type Config struct {
	// Devices is the fleet size (required, > 0).
	Devices int
	// Workers bounds the worker pool (<= 0 means GOMAXPROCS). Never
	// changes results.
	Workers int
	// Seed is the fleet seed every per-device stream derives from.
	Seed int64
	// Base is the device configuration all fleet members share before
	// per-device perturbation.
	Base sim.Config
	// Spec is the measured workload all fleet members share; per-device
	// perturbation overrides Seed (always) and scales MeanInterArrival
	// (when Diurnal > 0). Its precondition seed is pinned so every
	// device in a class shares the snapshot fill.
	Spec trace.Spec

	// UtilSpread is the total width of the per-device utilization skew:
	// device utilizations spread evenly across UtilClasses class centers
	// in [base-UtilSpread/2, base+UtilSpread/2]. Zero disables skew.
	UtilSpread float64
	// UtilClasses is the number of distinct utilization classes (each
	// class is one warm snapshot). Default 4 when UtilSpread > 0.
	UtilClasses int
	// StaggerClasses spreads GC watermarks across this many classes,
	// offset by 1.5 free blocks per class exactly like the array layer's
	// staggered-GC mode — coordinated GC cliffs at class 1, desynced
	// fleets above. Default 1 (no stagger).
	StaggerClasses int
	// Diurnal scales each device's mean inter-arrival time by a factor
	// in [1-Diurnal/2, 1+Diurnal/2] — the per-device phase offset of a
	// diurnal load curve. Zero disables it.
	Diurnal float64

	// TopK is how many straggler devices the merge reports (default 10).
	TopK int
	// Snapshots overrides how per-class warm snapshots are built.
	Snapshots SnapshotFunc
	// Tracer receives fleet-track telemetry (shard spans, the merge
	// span, straggler instants) on wall-clock time. Device runs
	// themselves are never traced — a fleet is observed at fleet
	// granularity.
	Tracer *obs.Recorder
}

// Per-device derivation dimensions. Each (fleet seed, device, dim)
// triple is an independent stream.
const (
	dimSeed    = 1
	dimUtil    = 2
	dimStagger = 3
	dimDiurnal = 4
)

// mix64 is the splitmix64 finalizer: a bijective avalanche mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// derive returns device dev's stream value for one dimension — a pure
// function of its inputs, so it is independent of evaluation order.
func derive(fleetSeed int64, dev int, dim uint64) uint64 {
	x := uint64(fleetSeed)
	x ^= mix64(uint64(dev+1) * 0x9e3779b97f4a7c15)
	x ^= mix64(dim * 0xd6e8feb86659fd93)
	return mix64(x)
}

// unit maps a derived value to [0, 1).
func unit(v uint64) float64 { return float64(v>>11) / (1 << 53) }

// DeviceSummary is the compact per-device record the merge keeps — the
// full Result is reduced into shard accumulators and dropped.
type DeviceSummary struct {
	ID           int        `json:"id"`
	Seed         int64      `json:"seed"`
	UtilClass    int        `json:"util_class"`
	StaggerClass int        `json:"stagger_class"`
	Utilization  float64    `json:"utilization"`
	Requests     uint64     `json:"requests"`
	Events       uint64     `json:"events"`
	WA           float64    `json:"wa"`
	Erases       uint64     `json:"erases"`
	P50          event.Time `json:"p50_ns"`
	P99          event.Time `json:"p99_ns"`
	P999         event.Time `json:"p999_ns"`
	ReadP99      event.Time `json:"read_p99_ns"`
	WriteP99     event.Time `json:"write_p99_ns"`
}

// LatencyDist summarizes one merged latency histogram.
type LatencyDist struct {
	Count uint64     `json:"count"`
	Mean  float64    `json:"mean_ns"`
	P50   event.Time `json:"p50_ns"`
	P99   event.Time `json:"p99_ns"`
	P999  event.Time `json:"p999_ns"`
	Max   event.Time `json:"max_ns"`
}

// DeviceDist summarizes the distribution of one per-device scalar
// across the fleet (WA, erase counts, per-device p99).
type DeviceDist struct {
	Min    float64 `json:"min"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	Spread float64 `json:"spread"` // max - min
}

// Result is the deterministic fleet aggregate: byte-identical for a
// given Config regardless of Workers. Wall-clock facts (throughput,
// worker count) deliberately live outside it.
type Result struct {
	Devices        int    `json:"devices"`
	Seed           int64  `json:"seed"`
	UtilClasses    int    `json:"util_classes"`
	StaggerClasses int    `json:"stagger_classes"`
	Requests       uint64 `json:"requests"`
	Events         uint64 `json:"events"`

	// Fleet-level request-latency distributions: every request of every
	// device merged into one histogram per class.
	Latency      LatencyDist `json:"latency"`
	ReadLatency  LatencyDist `json:"read_latency"`
	WriteLatency LatencyDist `json:"write_latency"`

	// Per-device distributions across the fleet.
	WA        DeviceDist `json:"wa"`
	Erases    DeviceDist `json:"erases"`
	DeviceP99 DeviceDist `json:"device_p99_ns"`

	// Stragglers are the TopK devices ranked by per-device p99
	// (descending; ties broken by ascending ID).
	Stragglers []DeviceSummary `json:"stragglers"`

	// PerDevice holds every device summary in ID order. Excluded from
	// JSON: at fleet scale it is a dataset, not a report.
	PerDevice []DeviceSummary `json:"-"`
}

// shardAcc is one shard's private reduction target. Histograms merge
// associatively, and everything else is folded in device order, so
// folding shard accumulators in shard order reproduces the serial
// reduction exactly.
type shardAcc struct {
	all, read, write metrics.Histogram
	requests, events uint64
	devices          []DeviceSummary
}

// classes is the device-class matrix: one warm snapshot per
// (utilization class, stagger class) pair, built once before the pool
// fan-out. A slice matrix, not a map — iteration order is load-bearing
// here like everywhere else in the tree.
type classes struct {
	cfg   Config
	base  sim.Config // normalized shared base
	snaps [][]*sim.Snapshot
}

// utilOffset returns class u's utilization delta: class centers evenly
// spaced across the spread.
func (c *Config) utilOffset(u int) float64 {
	if c.UtilClasses <= 1 || c.UtilSpread == 0 {
		return 0
	}
	return c.UtilSpread * ((float64(u)+0.5)/float64(c.UtilClasses) - 0.5)
}

// classConfig returns the sim configuration of class (u, s).
func (c *classes) classConfig(u, s int) sim.Config {
	cfg := c.base
	cfg.Utilization += c.cfg.utilOffset(u)
	// Same stagger step as array.Config.StaggerGC: 1.5 free blocks of
	// watermark headroom per class, so class 0 collects first and the
	// rest follow in a staggered cascade instead of a coordinated cliff.
	cfg.Options.Watermark += 1.5 * float64(s) / float64(cfg.Device.Geometry.TotalBlocks())
	return cfg
}

// classSpec returns the workload spec of class (u, s): the shared spec
// re-pointed at the class's logical-address-space size.
func (c *classes) classSpec(u, s int) trace.Spec {
	spec := c.cfg.Spec
	spec.LogicalPages = sim.LogicalPagesOf(c.classConfig(u, s))
	return spec
}

// Normalize validates c and applies every default, returning the
// configuration Run runs. It is idempotent, so a caller can key on its
// result (the root package's fleet identity does) and still pass it to
// Run.
func (c Config) Normalize() (Config, error) {
	if c.Devices <= 0 {
		return c, fmt.Errorf("fleet: %d devices", c.Devices)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.UtilClasses <= 0 {
		if c.UtilSpread > 0 {
			c.UtilClasses = 4
		} else {
			c.UtilClasses = 1
		}
	}
	if c.UtilSpread == 0 {
		c.UtilClasses = 1
	}
	if c.StaggerClasses <= 0 {
		c.StaggerClasses = 1
	}
	if c.TopK <= 0 {
		c.TopK = 10
	}
	if c.TopK > c.Devices {
		c.TopK = c.Devices
	}
	if !(0 <= c.UtilSpread && c.UtilSpread < 1) { // written so NaN fails
		return c, fmt.Errorf("fleet: utilization spread %.3f outside [0, 1)", c.UtilSpread)
	}
	if !(0 <= c.Diurnal && c.Diurnal < 2) {
		return c, fmt.Errorf("fleet: diurnal spread %.3f outside [0, 2)", c.Diurnal)
	}
	base := c.Base.Normalized()
	if c.UtilSpread > 0 {
		lo := base.Utilization - c.UtilSpread/2
		hi := base.Utilization + c.UtilSpread/2
		if lo <= 0 || hi >= 1 {
			return c, fmt.Errorf("fleet: utilization %.3f ± %.3f leaves (0, 1)", base.Utilization, c.UtilSpread/2)
		}
	}
	// Device runs are observed at fleet granularity only: a per-request
	// tracer on the base config would record millions of events across
	// thousands of devices and interleave wall-clock-ordered shards.
	c.Base.Tracer = nil
	if c.Snapshots == nil {
		c.Snapshots = sim.NewSnapshot
	}
	// Pin the precondition stream: per-device measured seeds must not
	// leak into the fill, or every device would need its own snapshot.
	if c.Spec.PrecondSeed == 0 {
		c.Spec.PrecondSeed = 1
	}
	return c, nil
}

// buildClasses constructs the snapshot matrix serially (at most
// UtilClasses × StaggerClasses preconditioning fills; devices then
// clone from these, so the fills are the only preconditions a fleet
// ever pays).
func buildClasses(cfg Config) (*classes, error) {
	cl := &classes{cfg: cfg, base: cfg.Base.Normalized()}
	cl.snaps = make([][]*sim.Snapshot, cfg.UtilClasses)
	for u := range cl.snaps {
		cl.snaps[u] = make([]*sim.Snapshot, cfg.StaggerClasses)
		for s := range cl.snaps[u] {
			snap, err := cfg.Snapshots(cl.classConfig(u, s), cl.classSpec(u, s))
			if err != nil {
				return nil, fmt.Errorf("fleet: class (util %d, stagger %d): %w", u, s, err)
			}
			snap.SetFreeListCap(cfg.Workers)
			cl.snaps[u][s] = snap
		}
	}
	return cl, nil
}

// deviceClass returns device dev's class coordinates.
func (c *classes) deviceClass(dev int) (u, s int) {
	cfg := &c.cfg
	if cfg.UtilClasses > 1 {
		u = int(derive(cfg.Seed, dev, dimUtil) % uint64(cfg.UtilClasses))
	}
	if cfg.StaggerClasses > 1 {
		s = int(derive(cfg.Seed, dev, dimStagger) % uint64(cfg.StaggerClasses))
	}
	return u, s
}

// deviceSpec returns device dev's measured workload: class spec with
// the device's own seed and diurnal arrival phase.
func (c *classes) deviceSpec(dev, u, s int) trace.Spec {
	cfg := &c.cfg
	spec := c.classSpec(u, s)
	seed := int64(derive(cfg.Seed, dev, dimSeed) >> 1)
	if seed == 0 {
		seed = 1
	}
	spec.Seed = seed
	if cfg.Diurnal > 0 && spec.MeanInterArrival > 0 {
		f := 1 + cfg.Diurnal*(unit(derive(cfg.Seed, dev, dimDiurnal))-0.5)
		scaled := event.Time(float64(spec.MeanInterArrival) * f)
		// Keep the generator's burst invariant intact at the fast edge.
		if spec.BurstMean > 1 && scaled <= spec.IntraBurst {
			scaled = spec.IntraBurst + 1
		}
		spec.MeanInterArrival = scaled
	}
	return spec
}

// runDevice simulates one fleet member and reduces it to a summary.
func (c *classes) runDevice(dev int, acc *shardAcc) error {
	u, s := c.deviceClass(dev)
	cfg := c.classConfig(u, s)
	spec := c.deviceSpec(dev, u, s)
	res, err := sim.RunWarmRecycled(c.snaps[u][s], cfg, spec)
	if err != nil {
		return fmt.Errorf("fleet: device %d (util %d, stagger %d): %w", dev, u, s, err)
	}
	acc.all.Merge(&res.Latency)
	acc.read.Merge(&res.ReadLatency)
	acc.write.Merge(&res.WriteLatency)
	acc.requests += res.Requests
	events := res.Requests +
		res.FTL.UserReadPages + res.FTL.UserWritePages + res.FTL.UserTrimPages +
		res.FTL.GCReads + res.FTL.TotalPrograms() + res.FTL.BlocksErased +
		res.FTL.HashOps
	acc.events += events
	acc.devices = append(acc.devices, DeviceSummary{
		ID:           dev,
		Seed:         spec.Seed,
		UtilClass:    u,
		StaggerClass: s,
		Utilization:  cfg.Utilization,
		Requests:     res.Requests,
		Events:       events,
		WA:           res.FTL.WriteAmplification(),
		Erases:       res.FTL.BlocksErased,
		P50:          res.Latency.Percentile(0.50),
		P99:          res.Latency.Percentile(0.99),
		P999:         res.Latency.Percentile(0.999),
		ReadP99:      res.ReadLatency.Percentile(0.99),
		WriteP99:     res.WriteLatency.Percentile(0.99),
	})
	return nil
}

// Run executes the fleet: build the class snapshots, shard the device
// range over the worker pool (batch-aware: shards dispatch
// longest-estimated-first with work stealing, so tail shards backfill
// worker stalls), and fold the shard accumulators in shard order into
// the deterministic fleet Result. Scheduling facts — steals, recycled
// re-seeds — are wall-clock telemetry on the scheduler track; they
// never enter the Result.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	cl, err := buildClasses(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	wall := func() event.Time { return event.Time(time.Since(start)) }
	reseeds0 := sim.CloneGaugeStats().Reseeds

	// One accumulator per shard (a value slice: shardAcc embeds three
	// fixed-size histograms, so pointer-per-shard would be one large
	// allocation per shard) and one shared DeviceSummary backing array.
	// Each shard appends into its own three-index window — disjoint
	// capacity-capped ranges, so concurrent shard appends never touch a
	// neighbor and the filled array is already in device-ID order.
	numShards := (cfg.Devices + shardSize - 1) / shardSize
	shard := func(i int) (first, last int) {
		first = i * shardSize
		return first, min(first+shardSize, cfg.Devices)
	}
	accs := make([]shardAcc, numShards)
	all := make([]DeviceSummary, cfg.Devices)
	for i := range accs {
		first, last := shard(i)
		accs[i].devices = all[first:first:last]
	}
	shardEvents := func(i int) float64 {
		first, last := shard(i)
		return float64(last-first) * float64(cfg.Spec.Requests)
	}
	st := pool.Run(numShards, pool.Options{
		Workers: cfg.Workers,
		Weight: func(i int) float64 {
			return pool.Cost.Estimate(cfg.Spec.Name, shardEvents(i))
		},
	}, func(i int) error {
		first, last := shard(i)
		t0 := wall()
		acc := &accs[i]
		for dev := first; dev < last; dev++ {
			if err := cl.runDevice(dev, acc); err != nil {
				return err
			}
		}
		t1 := wall()
		pool.Cost.Observe(cfg.Spec.Name, shardEvents(i), float64(t1-t0))
		cfg.Tracer.Span(obs.TrackFleet, obs.KFleetShard, t0, t1, uint64(first))
		return nil
	})
	if err := pool.First(st.Errs); err != nil {
		return nil, err
	}
	cfg.Tracer.Counter(obs.TrackSched, obs.KSchedSteal, wall(), st.Steals)
	cfg.Tracer.Counter(obs.TrackSched, obs.KSchedReseed, wall(),
		sim.CloneGaugeStats().Reseeds-reseeds0)

	mergeStart := wall()
	res := mergeShards(cfg, accs, all)
	cfg.Tracer.Span(obs.TrackFleet, obs.KFleetMerge, mergeStart, wall(), uint64(cfg.Devices))
	for _, d := range res.Stragglers {
		cfg.Tracer.Instant(obs.TrackFleet, obs.KFleetStraggler, wall(), uint64(d.ID))
	}
	return res, nil
}

// mergeShards folds the shard accumulators in shard-index order — the
// single ordered reduction that makes the fleet Result independent of
// worker scheduling. all is the shared DeviceSummary backing array the
// shards appended into; the shards cover it exactly in ID order, so it
// is adopted as PerDevice without copying. The fold allocates a fixed
// handful of slices regardless of shard count — a shape
// TestMergeShardsAllocs pins.
func mergeShards(cfg Config, accs []shardAcc, all []DeviceSummary) *Result {
	res := &Result{
		Devices:        cfg.Devices,
		Seed:           cfg.Seed,
		UtilClasses:    cfg.UtilClasses,
		StaggerClasses: cfg.StaggerClasses,
		PerDevice:      all,
	}
	var lat, read, write metrics.Histogram
	for i := range accs {
		acc := &accs[i]
		lat.Merge(&acc.all)
		read.Merge(&acc.read)
		write.Merge(&acc.write)
		res.Requests += acc.requests
		res.Events += acc.events
	}
	res.Latency = latencyDist(&lat)
	res.ReadLatency = latencyDist(&read)
	res.WriteLatency = latencyDist(&write)

	// One consolidated scratch buffer for the three per-device scalar
	// distributions instead of three per-fold allocations.
	n := len(res.PerDevice)
	scratch := make([]float64, 3*n)
	was, erases, p99s := scratch[:n:n], scratch[n:2*n:2*n], scratch[2*n:]
	for i, d := range res.PerDevice {
		was[i] = d.WA
		erases[i] = float64(d.Erases)
		p99s[i] = float64(d.P99)
	}
	res.WA = deviceDist(was)
	res.Erases = deviceDist(erases)
	res.DeviceP99 = deviceDist(p99s)

	// Straggler ranking: slowest per-device p99 first, IDs ascending on
	// ties — a total order, so the ranking is unique. The TopK result is
	// re-sliced to its own array so the full ranking can be collected.
	ranked := make([]DeviceSummary, n)
	copy(ranked, res.PerDevice)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].P99 != ranked[j].P99 {
			return ranked[i].P99 > ranked[j].P99
		}
		return ranked[i].ID < ranked[j].ID
	})
	res.Stragglers = slices.Clone(ranked[:cfg.TopK])
	return res
}

func latencyDist(h *metrics.Histogram) LatencyDist {
	return LatencyDist{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(0.50),
		P99:   h.Percentile(0.99),
		P999:  h.Percentile(0.999),
		Max:   h.Max(),
	}
}

// deviceDist summarizes a per-device scalar. Percentiles use the same
// rank = ceil(p·n) convention as metrics.Histogram.
func deviceDist(vals []float64) DeviceDist {
	n := len(vals)
	if n == 0 {
		return DeviceDist{}
	}
	s := make([]float64, n)
	copy(s, vals)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	rank := func(p float64) float64 {
		r := int(p * float64(n))
		if float64(r) < p*float64(n) {
			r++
		}
		if r < 1 {
			r = 1
		}
		return s[r-1]
	}
	return DeviceDist{
		Min:    s[0],
		P50:    rank(0.50),
		P99:    rank(0.99),
		Max:    s[n-1],
		Mean:   sum / float64(n),
		Spread: s[n-1] - s[0],
	}
}
