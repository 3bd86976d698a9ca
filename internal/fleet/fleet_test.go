package fleet

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/pool"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// fleetConfig builds a small but fully-perturbed fleet: utilization
// skew, watermark stagger, and diurnal phase offsets all active, so the
// determinism tests exercise every derivation dimension and multiple
// snapshot classes.
func fleetConfig(t *testing.T, devices int) Config {
	t.Helper()
	base := sim.Config{
		Device:      flash.ScaledConfig(16 << 20),
		Options:     ftl.CAGCOptions(),
		Utilization: 0.55,
	}
	spec, err := trace.Preset(trace.Mail, sim.LogicalPagesOf(base), 400, 42)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Devices:        devices,
		Seed:           7,
		Base:           base,
		Spec:           spec,
		UtilSpread:     0.08,
		UtilClasses:    2,
		StaggerClasses: 2,
		Diurnal:        0.5,
		TopK:           5,
	}
}

// resultBytes is the byte-level identity the CI determinism step uses:
// the JSON document plus the full per-device dataset.
func resultBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	doc, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	per, err := json.Marshal(r.PerDevice)
	if err != nil {
		t.Fatal(err)
	}
	return append(doc, per...)
}

// multiShard devices fill three shards, the last of them partly.
const multiShard = 2*shardSize + 2

// The tentpole contract: the fleet Result is byte-identical at any
// worker count, with the devices spread over several shards.
func TestFleetWorkerCountInvariance(t *testing.T) {
	cfg := fleetConfig(t, multiShard)
	workers := []int{1, 4, runtime.NumCPU()}
	var ref []byte
	var refRes *Result
	for _, w := range workers {
		c := cfg
		c.Workers = w
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		b := resultBytes(t, res)
		if ref == nil {
			ref, refRes = b, res
			continue
		}
		if string(b) != string(ref) {
			t.Fatalf("fleet result at %d workers differs from 1 worker", w)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Fatalf("fleet struct at %d workers differs from 1 worker", w)
		}
	}
	if refRes.Devices != multiShard || len(refRes.PerDevice) != multiShard {
		t.Fatalf("fleet covered %d/%d devices", len(refRes.PerDevice), refRes.Devices)
	}
	if len(refRes.Stragglers) != 5 {
		t.Fatalf("straggler top-K = %d, want 5", len(refRes.Stragglers))
	}
}

// Per-device streams are order-free: a device's simulated life depends
// only on (fleet seed, device ID), so growing the fleet — which
// reshuffles every shard — must not change any existing device.
func TestFleetDeviceStreamIndependence(t *testing.T) {
	small := fleetConfig(t, 8)
	big := fleetConfig(t, shardSize+6) // a second shard on top
	small.Workers, big.Workers = 2, 3
	resSmall, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	resBig, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resSmall.PerDevice {
		if !reflect.DeepEqual(resSmall.PerDevice[i], resBig.PerDevice[i]) {
			t.Fatalf("device %d changed when the fleet grew:\nsmall %+v\nbig   %+v",
				i, resSmall.PerDevice[i], resBig.PerDevice[i])
		}
	}
}

// The parallel sharded merge must equal the serial reference: every
// device run in ID order into one accumulator, merged alone. Verifies
// percentile, distribution, and straggler math survive sharding.
func TestFleetMergeMatchesSerialReference(t *testing.T) {
	cfg := fleetConfig(t, multiShard)
	cfg.Workers = 4
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	norm, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := buildClasses(norm)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]DeviceSummary, 0, norm.Devices)
	acc := &shardAcc{devices: all}
	for dev := 0; dev < norm.Devices; dev++ {
		if err := cl.runDevice(dev, acc); err != nil {
			t.Fatal(err)
		}
	}
	want := mergeShards(norm, []shardAcc{*acc}, acc.devices)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded fleet diverged from serial reference:\ngot  %+v\nwant %+v", got, want)
	}
}

// A fleet builds exactly one snapshot per device class, regardless of
// how many devices land in each class.
func TestFleetSnapshotsPerClass(t *testing.T) {
	cfg := fleetConfig(t, 20)
	cfg.Workers = 2
	var builds atomic.Int64
	cfg.Snapshots = func(c sim.Config, s trace.Spec) (*sim.Snapshot, error) {
		builds.Add(1)
		return sim.NewSnapshot(c, s)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if want := int64(cfg.UtilClasses * cfg.StaggerClasses); builds.Load() != want {
		t.Fatalf("fleet built %d snapshots, want %d (one per class)", builds.Load(), want)
	}
}

// Fleet runs must keep clone residency bounded by the worker count —
// the parked-list contract at fleet scale.
func TestFleetCloneResidencyBounded(t *testing.T) {
	cfg := fleetConfig(t, 20)
	cfg.Workers = 3
	sim.ResetCloneGauge()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	stats := sim.CloneGaugeStats()
	if stats.Peak > cfg.Workers+1 {
		t.Fatalf("peak live clones %d exceeds workers+1 = %d for %d devices",
			stats.Peak, cfg.Workers+1, cfg.Devices)
	}
	if stats.Live != 0 {
		t.Fatalf("%d clones still live after the fleet completed", stats.Live)
	}
}

// armedPanicPolicy is greedy until armed, then panics in Select — a
// stand-in for any bug deep inside a device run.
type armedPanicPolicy struct{ armed *atomic.Bool }

func (p armedPanicPolicy) Name() string { return "armed-panic" }

func (p armedPanicPolicy) Select(now event.Time, v ftl.VictimView) flash.BlockID {
	if p.armed.Load() {
		panic("armed victim policy")
	}
	return ftl.GreedyPolicy{}.Select(now, v)
}

// A device that panics fails the fleet with a *pool.PanicError instead
// of taking the process, and leaks no live clone and no decode-ahead
// producer on any worker (devices run long enough to go ahead).
func TestFleetPanicBalancesGauge(t *testing.T) {
	cfg := fleetConfig(t, 12)
	cfg.Workers = 3
	cfg.Spec.Requests = trace.AheadMinRequests
	base := runtime.NumGoroutine()
	armed := new(atomic.Bool)
	cfg.Base.Options.Policy = armedPanicPolicy{armed}
	// Arm once the warm snapshots exist, so only device replays panic.
	cfg.Snapshots = func(c sim.Config, s trace.Spec) (*sim.Snapshot, error) {
		armed.Store(false)
		defer armed.Store(true)
		return sim.NewSnapshot(c, s)
	}
	before := sim.CloneGaugeStats().Live
	_, err := Run(cfg)
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("fleet error %v, want a *pool.PanicError", err)
	}
	if live := sim.CloneGaugeStats().Live; live != before {
		t.Fatalf("panicking fleet left live clones at %d, want %d", live, before)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("panicking fleet left %d goroutines, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// Utilization classes must actually skew, stagger classes must actually
// stagger, and both must stay inside their documented envelopes.
func TestFleetPerturbationEnvelope(t *testing.T) {
	cfg := fleetConfig(t, 30)
	cfg.Workers = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	utils := map[float64]bool{}
	staggers := map[int]bool{}
	for _, d := range res.PerDevice {
		utils[d.Utilization] = true
		staggers[d.StaggerClass] = true
		if d.Utilization < 0.55-0.04-1e-9 || d.Utilization > 0.55+0.04+1e-9 {
			t.Fatalf("device %d utilization %.4f outside ±spread/2", d.ID, d.Utilization)
		}
		if d.Seed <= 0 {
			t.Fatalf("device %d seed %d not positive", d.ID, d.Seed)
		}
	}
	if len(utils) != cfg.UtilClasses {
		t.Fatalf("fleet used %d utilization classes, want %d", len(utils), cfg.UtilClasses)
	}
	if len(staggers) != cfg.StaggerClasses {
		t.Fatalf("fleet used %d stagger classes, want %d", len(staggers), cfg.StaggerClasses)
	}
}

// Normalize refuses a spread outside its range, NaN and infinities
// included.
func TestNormalizeRefusesSpreads(t *testing.T) {
	for _, v := range []float64{-0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(*Config){
			func(c *Config) { c.UtilSpread = v },
			func(c *Config) { c.Diurnal = v },
		} {
			cfg := fleetConfig(t, 2)
			set(&cfg)
			if _, err := cfg.Normalize(); err == nil {
				t.Errorf("spread %g accepted: UtilSpread %g, Diurnal %g", v, cfg.UtilSpread, cfg.Diurnal)
			}
		}
	}
}

// syntheticAccs builds a merge input without running simulations: s
// shards of d devices each, with deterministic per-device scalars and
// populated histograms.
func syntheticAccs(s, d int) ([]shardAcc, []DeviceSummary) {
	accs := make([]shardAcc, s)
	all := make([]DeviceSummary, s*d)
	for i := range accs {
		first := i * d
		accs[i].devices = all[first : first : first+d]
		for j := 0; j < d; j++ {
			dev := first + j
			lat := event.Time(1000 + 37*dev%900)
			accs[i].all.Record(lat)
			accs[i].read.Record(lat / 2)
			accs[i].write.Record(lat * 2)
			accs[i].requests += 10
			accs[i].events += 40
			accs[i].devices = append(accs[i].devices, DeviceSummary{
				ID:     dev,
				Seed:   int64(dev + 1),
				WA:     1 + float64(dev%7)/10,
				Erases: uint64(dev % 13),
				P99:    lat,
			})
		}
	}
	return accs, all
}

// The fleet fold allocates a fixed handful of slices per merge — it
// must not scale with the shard count (the accumulators and the
// per-device array are preallocated by Run).
func TestMergeShardsAllocs(t *testing.T) {
	cfg := Config{Devices: 64 * 4, Seed: 1, UtilClasses: 1, StaggerClasses: 1, TopK: 10}
	few, fewAll := syntheticAccs(4, 64)
	many, manyAll := syntheticAccs(64, 4)
	perFold := func(accs []shardAcc, all []DeviceSummary) float64 {
		return testing.AllocsPerRun(50, func() {
			mergeShards(cfg, accs, all)
		})
	}
	a4, a64 := perFold(few, fewAll), perFold(many, manyAll)
	if a64 > a4 {
		t.Fatalf("merge allocations scale with shard count: %0.f at 4 shards, %0.f at 64", a4, a64)
	}
	// The fixed budget: result struct, consolidated scalar scratch,
	// ranked copy + its sort closures, and the top-K clone.
	if a4 > 12 {
		t.Fatalf("merge of a fixed fleet allocates %.0f times, want <= 12", a4)
	}
}
