package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"cagc/internal/ftl"
	"cagc/internal/trace"
)

// A recycled runner must be indistinguishable from a fresh clone: the
// first RunWarmRecycled cuts a clone, releases it, and every later run
// re-seeds that same runner through copyFrom. All of them must
// reproduce a cold Run bit for bit — including with the full stateful
// stack (write buffer, cached mapping table, stateful victim policy,
// closed-loop replay), which exercises every CopyFrom in the tree.
func TestRunWarmRecycledMatchesColdRun(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) (Config, trace.Spec)
	}{
		{"cagc", func(t *testing.T) (Config, trace.Spec) {
			return snapConfig(t, ftl.CAGCOptions())
		}},
		{"all-layers", func(t *testing.T) (Config, trace.Spec) {
			opts := ftl.CAGCOptions()
			opts.Policy = ftl.NewRandomPolicy(7)
			opts.MappingCache = 1024
			cfg, spec := snapConfig(t, opts)
			cfg.BufferPages = 32
			cfg.QueueDepth = 8
			return cfg, spec
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, spec := tc.cfg(t)
			cold, err := Run(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			snapCfg, _ := tc.cfg(t)
			snap, err := NewSnapshot(snapCfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			before := CloneGaugeStats()
			for i := 0; i < 3; i++ {
				runCfg, _ := tc.cfg(t)
				warm, err := RunWarmRecycled(snap, runCfg, spec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cold, warm) {
					t.Fatalf("recycled run %d diverged from cold run:\ncold %v\nwarm %v", i, cold, warm)
				}
			}
			after := CloneGaugeStats()
			if fresh := after.Fresh - before.Fresh; fresh != 1 {
				t.Fatalf("3 serial recycled runs cut %d fresh clones, want 1", fresh)
			}
			if rec := after.Recycled - before.Recycled; rec != 2 {
				t.Fatalf("3 serial recycled runs recycled %d runners, want 2", rec)
			}
		})
	}
}

// A recycled run with different measured parameters (seed, queue depth)
// must match the cold run for those parameters — recycling cannot leak
// the previous run's trace into the next.
func TestRecycledRunnerCarriesNoRunState(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the free-list with a run on a different seed.
	primed := spec
	primed.Seed = 4242
	if _, err := RunWarmRecycled(snap, cfg, primed); err != nil {
		t.Fatal(err)
	}
	cold, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunWarmRecycled(snap, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("recycled runner leaked previous run state")
	}
	// And the master stayed pristine through the recycle churn.
	again, err := RunWarmRecycled(snap, cfg, primed)
	if err != nil {
		t.Fatal(err)
	}
	coldPrimed, err := Run(cfg, primed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldPrimed, again) {
		t.Fatal("recycle churn mutated the snapshot master")
	}
}

// The whole point of the free-list: a batch of N runs must never hold
// more than workers+1 clones live at once, regardless of N. (The +1
// allows for a released runner being re-seeded while another worker
// holds its own — in practice peak == workers for this serial-release
// pattern, but the bound is what the memory model needs.)
func TestBatchCloneResidencyBoundedByWorkers(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	const n, workers = 12, 3
	snap.SetFreeListCap(workers)
	runs := make([]BatchRun, n)
	for i := range runs {
		s := spec
		s.Seed = int64(i + 1)
		runs[i] = BatchRun{Snap: snap, Cfg: cfg, Spec: s}
	}
	ResetCloneGauge()
	before := CloneGaugeStats()
	results, errs := RunBatch(runs, workers)
	if errs != nil {
		t.Fatalf("batch errors: %v", errs)
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("missing result %d", i)
		}
	}
	after := CloneGaugeStats()
	if after.Peak > workers+1 {
		t.Fatalf("peak live clones %d exceeds workers+1 = %d for %d runs",
			after.Peak, workers+1, n)
	}
	if total := after.Fresh - before.Fresh + after.Recycled - before.Recycled; total != n {
		t.Fatalf("gauge saw %d acquires, want %d", total, n)
	}
	if after.Fresh-before.Fresh > workers {
		t.Fatalf("batch cut %d fresh clones with %d workers; recycling is not engaging",
			after.Fresh-before.Fresh, workers)
	}
	if after.Live != 0 {
		t.Fatalf("%d clones still live after batch completed", after.Live)
	}
}

// Release beyond the free-list cap must drop the runner, not park it:
// the next acquires recycle exactly as many runners as the cap allows
// and cut fresh clones for the rest.
func TestReleaseBeyondCapDrops(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	snap.SetFreeListCap(1)
	r1, err := snap.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := snap.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release(r1)
	snap.Release(r2) // beyond the cap: dropped
	before := CloneGaugeStats()
	r3, err := snap.Acquire(cfg) // recycles r1
	if err != nil {
		t.Fatal(err)
	}
	r4, err := snap.Acquire(cfg) // list empty: fresh
	if err != nil {
		t.Fatal(err)
	}
	after := CloneGaugeStats()
	if rec := after.Recycled - before.Recycled; rec != 1 {
		t.Fatalf("recycled %d runners after a cap-1 double release, want 1", rec)
	}
	if fresh := after.Fresh - before.Fresh; fresh != 1 {
		t.Fatalf("cut %d fresh clones after a cap-1 double release, want 1", fresh)
	}
	// Shrinking the cap below the parked population trims the list.
	// (Both runners go back first: the gauge's Live outlasts this test,
	// and one of them is the parked population.)
	snap.Release(r3)
	snap.Release(r4)
	snap.SetFreeListCap(0)
	snap.mu.Lock()
	parked := len(snap.free)
	snap.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d runners parked after capping the free-list at 0", parked)
	}
}

// Trimming the free-list must let go of the runners it drops: a
// reference left behind in the list's backing array would pin ~200 KB
// per runner for the snapshot's life.
func TestSetFreeListCapDropsReferences(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	const parked = 3
	snap.SetFreeListCap(parked)
	var collected atomic.Int32
	func() { // its own frame, so no runner stays reachable from this one
		var rs [parked]*Runner
		for i := range rs {
			if rs[i], err = snap.Acquire(cfg); err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(rs[i], func(*Runner) { collected.Add(1) })
		}
		for _, r := range rs {
			snap.Release(r)
		}
	}()
	snap.SetFreeListCap(0)
	for i := 0; i < 50 && collected.Load() < parked; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := collected.Load(); n != parked {
		t.Fatalf("%d of %d dropped runners became collectable", n, parked)
	}
	runtime.KeepAlive(snap)
}

// A failed run must never re-enter the free-list — its state is
// mid-replay garbage — but the residency gauge must stay balanced.
func TestFailedRunNotRecycled(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	bad := spec
	bad.AvgReqPages = 0.5 // rejected by the generator, after Acquire
	before := CloneGaugeStats()
	if _, err := RunWarmRecycled(snap, cfg, bad); err == nil {
		t.Fatal("bad spec did not fail")
	}
	mid := CloneGaugeStats()
	if live := mid.Live - before.Live; live != 0 {
		t.Fatalf("failed run left %d clones live", live)
	}
	// The failed runner was dropped, not parked: the next run cuts a
	// fresh clone.
	if _, err := RunWarmRecycled(snap, cfg, spec); err != nil {
		t.Fatal(err)
	}
	after := CloneGaugeStats()
	if rec := after.Recycled - mid.Recycled; rec != 0 {
		t.Fatalf("recycled %d runners after a failed run, want 0 (failed state must not be reused)", rec)
	}
	if fresh := after.Fresh - mid.Fresh; fresh != 1 {
		t.Fatalf("cut %d fresh clones after a failed run, want 1", fresh)
	}
}

// Concurrent Acquire/Release churn must keep the residency gauge
// consistent: Live returns to zero, Peak never exceeds the number of
// concurrent holders, and every acquire is accounted fresh or recycled.
// Run under -race this also exercises the free-list locking.
func TestConcurrentAcquireReleaseGauge(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 6
	snap.SetFreeListCap(workers)
	ResetCloneGauge()
	before := CloneGaugeStats()
	small := spec
	small.Requests = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := RunWarmRecycled(snap, cfg, small); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	after := CloneGaugeStats()
	if after.Live != before.Live {
		t.Fatalf("gauge live drifted: %d -> %d", before.Live, after.Live)
	}
	// ResetCloneGauge preserves Live, so the peak is bounded relative to
	// whatever earlier tests still hold, not absolutely.
	if peak := after.Peak - before.Live; peak > workers {
		t.Fatalf("peak %d above the starting live count exceeds %d concurrent holders", peak, workers)
	}
	acquires := after.Fresh - before.Fresh + after.Recycled - before.Recycled
	if acquires != workers*perWorker {
		t.Fatalf("gauge saw %d acquires, want %d", acquires, workers*perWorker)
	}
	if after.Reseeds != after.Recycled {
		t.Fatalf("reseeds %d != recycled acquires %d", after.Reseeds, after.Recycled)
	}
}

// Every re-seed is the one full copy. A fresh Acquire cuts a clone
// and re-seeds nothing; each of the next three recycles of that runner
// copies exactly the bytes master.Clone() copies, and leaves the runner
// equal to the master field by field.
func TestEveryRecycleCopiesFull(t *testing.T) {
	cfg, spec, replay := reseedShape(t)
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	full := uint64(new(Runner).copyFrom(snap.master)) // Clone's copy

	// cycle acquires, checks the runner against the master, replays,
	// and parks it; it returns the bytes the Acquire's re-seed copied.
	cycle := func(wantRecycled bool) uint64 {
		t.Helper()
		before := CloneGaugeStats()
		r, err := snap.Acquire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		after := CloneGaugeStats()
		if recycled := after.Recycled-before.Recycled == 1; recycled != wantRecycled {
			t.Fatalf("acquire recycled = %v, want %v", recycled, wantRecycled)
		}
		if d := diffRunners(r, snap.master); d != "" {
			t.Fatalf("acquired runner differs from the master at %s", d)
		}
		if _, err := replayOn(r, snap.offset, replay); err != nil {
			t.Fatal(err)
		}
		if diffRunners(r, snap.master) == "" {
			t.Fatal("replay left the runner equal to the master: the comparison is vacuous")
		}
		snap.Release(r)
		return after.ReseedBytes - before.ReseedBytes
	}
	if n := cycle(false); n != 0 {
		t.Fatalf("fresh acquire re-seeded %d bytes, want 0", n)
	}
	for i := 1; i <= 3; i++ {
		if n := cycle(true); n != full {
			t.Fatalf("recycle %d copied %d bytes, want the full copy (%d)", i, n, full)
		}
	}
}

// The one copy routine must copy every field. master.Clone() — copyFrom
// into an empty Runner — is walked against the master field by field
// across all three schemes plus the full stateful stack (write buffer,
// cached mapping table, RandomPolicy), so a field added to a struct and
// forgotten in its CopyFrom fails here by name. Only scratchFields are
// skipped.
func TestCloneEqualsMasterFieldByField(t *testing.T) {
	stack := ftl.CAGCOptions()
	stack.Policy = ftl.NewRandomPolicy(7)
	stack.MappingCache = 1024
	cases := []struct {
		name   string
		opts   ftl.Options
		buffer int
	}{
		{"baseline", ftl.BaselineOptions(), 0},
		{"inline", ftl.InlineDedupeOptions(), 0},
		{"cagc", ftl.CAGCOptions(), 0},
		{"all-layers", stack, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, spec := snapConfig(t, tc.opts)
			cfg.BufferPages = tc.buffer
			snap, err := NewSnapshot(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			// Precondition stops short of GC on some shapes and leaves
			// counters at zero; a measured replay on the master-to-be
			// makes every table and counter non-trivial first.
			master := snap.master.Clone()
			if _, err := replayOn(master, snap.offset, spec); err != nil {
				t.Fatal(err)
			}
			// The FTL's private-page counter is compared like every other
			// field; it must not be trivially zero where the scheme keeps
			// private pages, and must be zero where it does not.
			if private := master.f.LiveContents() - master.f.Index().Live(); (private > 0) == tc.opts.InlineDedup {
				t.Fatalf("%d private pages under %s", private, tc.opts.SchemeName())
			}
			clone := master.Clone()
			if d := diffRunners(clone, master); d != "" {
				t.Fatalf("clone differs from its master at %s", d)
			}
			// The copy is deep: running the clone must not move the master.
			frozen := master.Clone()
			if _, err := replayOn(clone, snap.offset, spec); err != nil {
				t.Fatal(err)
			}
			if d := diffRunners(master, frozen); d != "" {
				t.Fatalf("running a clone changed its master at %s", d)
			}
			if diffRunners(clone, master) == "" {
				t.Fatal("replay left the clone equal to the master: the comparison is vacuous")
			}
		})
	}
}

// scratchFields are the struct fields no copy carries because they are
// not runner state: the write buffer's dirty mark, which records
// whether the holder has diverged from whatever it was last copied
// from.
var scratchFields = map[string]bool{"dirty": true}

// diffRunners walks the device, FTL and write buffer of two runners and
// returns the path of the first field that differs ("" when equal).
func diffRunners(a, b *Runner) string {
	for _, layer := range []struct {
		name string
		a, b any
	}{{"dev", a.dev, b.dev}, {"f", a.f, b.f}, {"buf", a.buf, b.buf}} {
		seen := map[[2]unsafe.Pointer]bool{}
		if d := diffState(layer.name, reflect.ValueOf(layer.a), reflect.ValueOf(layer.b), seen); d != "" {
			return d
		}
	}
	return ""
}

// diffState is reflect.DeepEqual that names the first difference, skips
// scratchFields, and lets a nil slice equal an empty one: a
// re-seed reuses the runner's backing arrays, so a table the master
// holds as nil comes back empty but allocated. seen breaks pointer
// cycles (the write buffer's list) the way DeepEqual does.
func diffState(path string, a, b reflect.Value, seen map[[2]unsafe.Pointer]bool) string {
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		return path
	}
	same := func(eq bool) string {
		if eq {
			return ""
		}
		return path
	}
	switch a.Kind() {
	case reflect.Invalid:
		return ""
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return same(a.IsNil() == b.IsNil())
		}
		k := [2]unsafe.Pointer{a.UnsafePointer(), b.UnsafePointer()}
		if seen[k] {
			return ""
		}
		seen[k] = true
		return diffState(path, a.Elem(), b.Elem(), seen)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return same(a.IsNil() == b.IsNil())
		}
		return diffState(path, a.Elem(), b.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if scratchFields[name] {
				continue
			}
			if d := diffState(path+"."+name, a.Field(i), b.Field(i), seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return path + " (len)"
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffState(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.Len() != b.Len() {
			return path + " (len)"
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v] (missing)", path, it.Key())
			}
			if d := diffState(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), bv, seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Bool:
		return same(a.Bool() == b.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return same(a.Int() == b.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return same(a.Uint() == b.Uint())
	case reflect.Float32, reflect.Float64:
		return same(a.Float() == b.Float())
	case reflect.String:
		return same(a.String() == b.String())
	default: // func, chan: none in runner state today; fail loudly
		return path + " (" + a.Kind().String() + ")"
	}
}
