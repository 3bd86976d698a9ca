package main

// Layer kernels: each times calls into one layer's exported functions,
// outside any process or event loop, and reports time per operation.
// They fill the per-layer ledger beside the exact counts read from the
// workload's document. None of them is gated; they exist so that a move
// in an end-to-end metric can be traced to the layer that caused it
// (bench/README.md lists which kernel should move which metric).

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"cagc"
	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/fleet"
	"cagc/internal/ftl"
	"cagc/internal/obs"
	"cagc/internal/pool"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// ledger collects per-layer metrics by name.
type ledger map[string]metric

func (l ledger) put(name string, v float64, unit string) { l[name] = metric{Value: v, Unit: unit} }

// nsPer is elapsed nanoseconds per operation.
func nsPer(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d) / float64(ops)
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durations(v []time.Duration) []float64 {
	return pick(v, func(d time.Duration) float64 { return float64(d) })
}

// eventKernel: Sim.AtArg + Step with two events pending, the depth the
// open-loop replay keeps, on the auto scheduler; and Timeline.Reserve.
func eventKernel(l ledger, n int) {
	es := event.NewSimOpts(event.SchedAuto, 20*event.Microsecond)
	var h event.ArgHandler
	h = func(now event.Time, arg uint64) {
		_ = es.AtArg(now+event.Time(1000+arg%7*300), h, arg+1)
	}
	_ = es.AtArg(0, h, 0)
	_ = es.AtArg(500, h, 1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		es.Step()
	}
	l.put("event.ns_per_event", nsPer(time.Since(t0), n), "ns")

	tl := event.NewTimeline()
	var at, sink event.Time
	t0 = time.Now()
	for i := 0; i < n; i++ {
		_, end := tl.Reserve(at, 20*event.Microsecond)
		sink += end
		at += 15 * event.Microsecond
	}
	l.put("event.timeline_ns_per_reserve", nsPer(time.Since(t0), n), "ns")
	_ = sink
}

// serviceOnly names, with their units, the per-layer metrics of the
// layers only serve_rounds drives: the service itself, and the pool and
// fleet behind its batch and fleet jobs. They are measured on that
// workload alone. The driver's result line carries every per-layer
// metric on every workload, so a CLI workload reports them as 0, which
// reads "this workload does not exercise the layer".
var serviceOnly = map[string]string{
	"serve.submit_us": "us", "serve.hit_ms": "ms", "serve.job_p50_ms": "ms", "serve.job_p95_ms": "ms",
	"serve.queue_wait_ms": "ms", "serve.ran_ms": "ms", "serve.cache_hit_ratio": "ratio", "serve.rejected": "count",
	"pool.dispatch_ns_per_item": "ns", "pool.steals": "count",
	"fleet.fold_us_per_device": "us", "fleet.devices_per_s": "1/s",
}

// flashCosts are the device costs ftlKernel subtracts.
type flashCosts struct{ program, read, erase float64 }

// flashKernel programs, reads and erases every page of a 16 MiB device
// in cycles.
func flashKernel(l ledger, n int) (flashCosts, error) {
	dev, err := flash.NewDevice(flash.ScaledConfig(16 << 20))
	if err != nil {
		return flashCosts{}, err
	}
	g := dev.Geometry()
	blocks, perBlock := g.TotalBlocks(), g.PagesPerBlock
	cycles := max(1, n/(blocks*perBlock))
	var tp, tr, te time.Duration
	var at event.Time
	each := func(fn func(b, pg int) error) (time.Duration, error) {
		t0 := time.Now()
		for b := 0; b < blocks; b++ {
			for pg := 0; pg < perBlock; pg++ {
				if err := fn(b, pg); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(t0), nil
	}
	for c := 0; c < cycles; c++ {
		d, err := each(func(b, pg int) error {
			at += event.Microsecond
			_, err := dev.ProgramPage(at, at, g.PageOf(flash.BlockID(b), pg), uint64(pg))
			return err
		})
		if err != nil {
			return flashCosts{}, err
		}
		tp += d
		if d, err = each(func(b, pg int) error {
			at += event.Microsecond
			_, err := dev.ReadPage(at, g.PageOf(flash.BlockID(b), pg))
			return err
		}); err != nil {
			return flashCosts{}, err
		}
		tr += d
		if _, err = each(func(b, pg int) error { return dev.Invalidate(g.PageOf(flash.BlockID(b), pg)) }); err != nil {
			return flashCosts{}, err
		}
		t0 := time.Now()
		for b := 0; b < blocks; b++ {
			if _, err := dev.EraseBlock(at, at, flash.BlockID(b)); err != nil {
				return flashCosts{}, err
			}
		}
		te += time.Since(t0)
	}
	pages := cycles * blocks * perBlock
	c := flashCosts{program: nsPer(tp, pages), read: nsPer(tr, pages), erase: nsPer(te, cycles*blocks)}
	l.put("flash.ns_per_program", c.program, "ns")
	l.put("flash.ns_per_read", c.read, "ns")
	l.put("flash.ns_per_erase", c.erase, "ns")
	return c, nil
}

// dedupCosts are the fingerprint-index costs ftlKernel subtracts.
type dedupCosts struct{ hit, miss, insert, decref float64 }

// dedupKernel: Insert, Lookup (present and absent) and DecRef on the
// fingerprint index, in rounds over one index at the live size the
// 16 MiB device gives it (one entry per physical page at most), so slots
// recycle the way they do under the FTL. The first round is untimed: it
// grows the tables.
func dedupKernel(l ledger, n int) (dedupCosts, error) {
	const live = 4096
	idx := dedup.NewIndex()
	cids := make([]dedup.CID, live)
	rounds := max(1, n/live)
	var tInsert, tHit, tMiss, tDecref time.Duration
	found := 0
	for r := 0; r <= rounds; r++ {
		base := uint64(r) * 2 * live
		t0 := time.Now()
		for i := range cids {
			c, err := idx.Insert(dedup.OfUint64(base+uint64(i)), flash.PPN(i))
			if err != nil {
				return dedupCosts{}, err
			}
			cids[i] = c
		}
		t1 := time.Now()
		for i := 0; i < live; i++ {
			if _, ok := idx.Lookup(dedup.OfUint64(base + uint64(i))); ok {
				found++
			}
		}
		t2 := time.Now()
		for i := 0; i < live; i++ {
			if _, ok := idx.Lookup(dedup.OfUint64(base + live + uint64(i))); ok {
				found++
			}
		}
		t3 := time.Now()
		for _, cid := range cids {
			if _, _, err := idx.DecRef(cid); err != nil {
				return dedupCosts{}, err
			}
		}
		t4 := time.Now()
		if r > 0 {
			tInsert, tHit, tMiss, tDecref = tInsert+t1.Sub(t0), tHit+t2.Sub(t1), tMiss+t3.Sub(t2), tDecref+t4.Sub(t3)
		}
	}
	if found != (rounds+1)*live {
		return dedupCosts{}, fmt.Errorf("dedup kernel: %d lookups hit, want %d", found, (rounds+1)*live)
	}
	ops := rounds * live
	c := dedupCosts{hit: nsPer(tHit, ops), miss: nsPer(tMiss, ops), insert: nsPer(tInsert, ops), decref: nsPer(tDecref, ops)}
	l.put("dedup.ns_per_lookup_hit", c.hit, "ns")
	l.put("dedup.ns_per_lookup_miss", c.miss, "ns")
	l.put("dedup.ns_per_insert", c.insert, "ns")
	l.put("dedup.ns_per_decref", c.decref, "ns")
	return c, nil
}

// applyRequest feeds one trace request to the FTL page by page, the way
// the replay loop does, and returns the pages served.
func applyRequest(f *ftl.FTL, req trace.Request, at event.Time) (int, error) {
	pages := 0
	for ; pages < req.Pages && req.LPN+uint64(pages) < f.LogicalPages(); pages++ {
		lpn := req.LPN + uint64(pages)
		var err error
		switch req.Op {
		case trace.OpWrite:
			_, err = f.Write(at, lpn, req.FPs[pages])
		case trace.OpRead:
			_, err = f.Read(at, lpn)
		default:
			_, err = f.Trim(at, lpn)
		}
		if err != nil {
			return pages, fmt.Errorf("ftl kernel: %v page %d: %w", req.Op, lpn, err)
		}
	}
	return pages, nil
}

// ftlKernel feeds the workload's own op stream to FTL.Write/Read/Trim
// on a preconditioned device with no event loop, then times ForceGC on
// a clone fed the same stream. Self time is the stream's total minus
// the flash and dedup kernels weighted by the operation counts the
// stream caused.
func ftlKernel(l ledger, cfg sim.Config, spec trace.Spec, n int, fc flashCosts, dc dedupCosts) error {
	spec.Requests = min(spec.Requests, n)
	r, err := sim.NewRunner(cfg)
	if err != nil {
		return err
	}
	pre, err := trace.NewPreconditioner(spec)
	if err != nil {
		return err
	}
	offset, err := r.Precondition(pre)
	if err != nil {
		return err
	}
	gcRunner := r.Clone()

	f := r.FTL()
	dev0, idx0 := f.Device().Stats(), f.Index().Stats()
	gen, err := trace.NewGenerator(spec)
	if err != nil {
		return err
	}
	var spent [3]time.Duration // by trace.Op
	var pages [3]int
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		t0 := time.Now()
		served, err := applyRequest(f, req, req.At+offset)
		spent[req.Op] += time.Since(t0)
		if err != nil {
			return err
		}
		pages[req.Op] += served
	}
	l.put("ftl.ns_per_write_page", nsPer(spent[trace.OpWrite], pages[trace.OpWrite]), "ns")
	l.put("ftl.ns_per_read_page", nsPer(spent[trace.OpRead], pages[trace.OpRead]), "ns")
	l.put("ftl.ns_per_trim_page", nsPer(spent[trace.OpTrim], pages[trace.OpTrim]), "ns")

	dev1, idx1 := f.Device().Stats(), f.Index().Stats()
	hits := float64(idx1.Hits - idx0.Hits)
	below := float64(dev1.PagePrograms-dev0.PagePrograms)*fc.program +
		float64(dev1.PageReads-dev0.PageReads)*fc.read +
		float64(dev1.BlockErases-dev0.BlockErases)*fc.erase +
		hits*dc.hit + (float64(idx1.Lookups-idx0.Lookups)-hits)*dc.miss +
		float64(idx1.Inserts-idx0.Inserts)*dc.insert +
		float64(idx1.Removals-idx0.Removals)*dc.decref
	total := float64(spent[0] + spent[1] + spent[2])
	l.put("ftl.self_ns_per_page", (total-below)/float64(max(1, pages[0]+pages[1]+pages[2])), "ns")

	// ForceGC: same stream on the clone, a forced collection every 256
	// requests. Only the forced collections are timed and only the blocks
	// they erase are counted: the writes in between trigger watermark GC
	// of their own.
	g := gcRunner.FTL()
	if gen, err = trace.NewGenerator(spec); err != nil {
		return err
	}
	var gcTime time.Duration
	var collected uint64
	for served := 1; ; served++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		at := req.At + offset
		if _, err := applyRequest(g, req, at); err != nil {
			return err
		}
		if served%256 == 0 {
			erased := g.Stats().BlocksErased
			t0 := time.Now()
			if err := g.ForceGC(at); err != nil {
				return err
			}
			gcTime += time.Since(t0)
			collected += g.Stats().BlocksErased - erased
		}
	}
	l.put("ftl.gc_ns_per_collect", nsPer(gcTime, int(collected)), "ns")
	return nil
}

// drain exhausts a source, returning requests and pages seen.
func drain(src trace.Source) (reqs, pages int, err error) {
	for {
		r, ok := src.Next()
		if !ok {
			return reqs, pages, trace.SourceErr(src)
		}
		reqs++
		pages += r.Pages
	}
}

// traceKernel: generator, preconditioner and binary decode throughput
// for the workload's spec.
func traceKernel(l ledger, spec trace.Spec, n int) error {
	spec.Requests = n
	gen, err := trace.NewGenerator(spec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	reqs, _, err := drain(gen)
	if err != nil {
		return err
	}
	l.put("trace.gen_ns_per_request", nsPer(time.Since(t0), reqs), "ns")

	pre, err := trace.NewPreconditioner(spec)
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, pages, err := drain(pre)
	if err != nil {
		return err
	}
	l.put("trace.precond_ns_per_page", nsPer(time.Since(t0), pages), "ns")

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return err
	}
	if gen, err = trace.NewGenerator(spec); err != nil {
		return err
	}
	for {
		r, ok := gen.Next()
		if !ok {
			break
		}
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	size := buf.Len()
	t0 = time.Now()
	src, err := trace.Open(&buf, trace.OpenOptions{})
	if err != nil {
		return err
	}
	decoded, _, err := drain(src)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if decoded != reqs {
		return fmt.Errorf("trace kernel: decoded %d requests, wrote %d", decoded, reqs)
	}
	l.put("trace.decode_ns_per_request", nsPer(d, decoded), "ns")
	l.put("trace.decode_mb_per_s", float64(size)/(1<<20)/d.Seconds(), "MiB/s")
	return nil
}

// simKernel: warm-snapshot build, fresh clone, and dirty-chunk re-seed
// after a short replay — the service's acquire path.
func simKernel(l ledger, cfg sim.Config, spec trace.Spec, rounds int) error {
	spec.Requests = min(spec.Requests, 4000)
	var builds, clones, reseeds []time.Duration
	var snap *sim.Snapshot
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		s, err := sim.NewSnapshot(cfg, spec)
		if err != nil {
			return err
		}
		builds = append(builds, time.Since(t0))
		snap = s
	}
	snap.SetFreeListCap(0) // nothing parked: every Acquire cuts a fresh clone
	g0 := sim.CloneGaugeStats()
	var r *sim.Runner
	for i := 0; i < rounds; i++ {
		snap.Release(r)
		t0 := time.Now()
		var err error
		if r, err = snap.Acquire(cfg); err != nil {
			return err
		}
		clones = append(clones, time.Since(t0))
	}
	snap.SetFreeListCap(1)
	for i := 0; i < rounds; i++ {
		gen, err := trace.NewGenerator(spec)
		if err != nil {
			return err
		}
		if _, err := r.Replay(gen, snap.Offset(), spec.Name); err != nil {
			return err
		}
		snap.Release(r)
		t0 := time.Now()
		if r, err = snap.Acquire(cfg); err != nil { // recycled: re-seed
			return err
		}
		reseeds = append(reseeds, time.Since(t0))
	}
	snap.Release(r)
	g1 := sim.CloneGaugeStats()
	l.put("sim.snapshot_build_ms", median(durations(builds))/1e6, "ms")
	l.put("sim.clone_us", median(durations(clones))/1e3, "us")
	l.put("sim.reseed_us", median(durations(reseeds))/1e3, "us")
	l.put("sim.reseed_bytes", float64(g1.ReseedBytes-g0.ReseedBytes)/float64(max(1, g1.Reseeds-g0.Reseeds)), "B")
	return nil
}

// cagcKernel: the root package's render, identity hash and warm-hit run.
func cagcKernel(l ledger, res *cagc.Result, w cagc.Workload, s cagc.Scheme, p cagc.Params, n int) error {
	renders := max(8, n>>12)
	t0 := time.Now()
	for i := 0; i < renders; i++ {
		if err := cagc.WriteJSON(io.Discard, res); err != nil {
			return err
		}
	}
	l.put("cagc.render_us", usOf(time.Since(t0))/float64(renders), "us")

	keys := max(64, n>>6)
	t0 = time.Now()
	total := 0
	for i := 0; i < keys; i++ {
		p.Seed++
		total += len(cagc.ConfigKey(w, s, "greedy", p))
	}
	l.put("cagc.configkey_us", usOf(time.Since(t0))/float64(keys), "us")
	if total != 64*keys {
		return fmt.Errorf("cagc kernel: config keys are not 64 hex characters")
	}

	// One-request runs served by the warm-snapshot registry: registry
	// hit, clone acquire or re-seed, replay of one request, release.
	p.Requests = 1
	var hits []time.Duration
	for i := 0; i < 1+max(4, n>>16); i++ {
		t0 := time.Now()
		if _, err := cagc.Run(w, s, "greedy", p); err != nil {
			return err
		}
		if i > 0 { // the first call builds the snapshot
			hits = append(hits, time.Since(t0))
		}
	}
	l.put("cagc.warm_hit_us", median(durations(hits))/1e3, "us")
	return nil
}

// poolFleetKernel: batch-aware dispatch of empty tasks on two workers,
// and a warm in-process fleet whose merge phase is read off the fleet's
// own merge span (the one number here not timed from outside: the fold
// is not separately callable).
func poolFleetKernel(l ledger, seed int64, n, devices, requests int) error {
	st := pool.Run(n, pool.Options{Workers: 2}, func(int) error { return nil })
	if err := pool.First(st.Errs); err != nil {
		return err
	}
	t0 := time.Now()
	st = pool.Run(n, pool.Options{Workers: 2}, func(int) error { return nil })
	l.put("pool.dispatch_ns_per_item", nsPer(time.Since(t0), n), "ns")
	if err := pool.First(st.Errs); err != nil {
		return err
	}

	cfg, spec, err := runConfig(cagc.Mail, cagc.CAGC, defaultParams(requests, seed))
	if err != nil {
		return err
	}
	snaps := map[[2]float64]*sim.Snapshot{}
	rec := obs.NewFlightRecorder(256)
	fc := fleet.Config{Devices: devices, Workers: 1, Seed: seed, Base: cfg, Spec: spec,
		UtilSpread: 0.1, UtilClasses: 2, StaggerClasses: 2, Tracer: rec,
		Snapshots: func(c sim.Config, s trace.Spec) (*sim.Snapshot, error) {
			key := [2]float64{c.Utilization, c.Options.Watermark}
			if snap, ok := snaps[key]; ok {
				return snap, nil
			}
			snap, err := sim.NewSnapshot(c, s)
			snaps[key] = snap
			return snap, err
		}}
	if _, err := fleet.Run(fc); err != nil { // builds the class snapshots
		return err
	}
	rec.Reset()
	t0 = time.Now()
	if _, err := fleet.Run(fc); err != nil {
		return err
	}
	wall := time.Since(t0)
	l.put("fleet.devices_per_s", float64(devices)/wall.Seconds(), "1/s")
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KFleetMerge {
			l.put("fleet.fold_us_per_device", float64(ev.End-ev.Start)/1e3/float64(devices), "us")
			return nil
		}
	}
	return fmt.Errorf("fleet kernel: no merge span recorded")
}
