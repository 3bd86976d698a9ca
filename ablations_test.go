package cagc

import "testing"

func TestAblateWriteBuffer(t *testing.T) {
	var items []BatchItem
	for _, n := range []int{8, 256} {
		p := testParams()
		p.BufferPages = n
		items = append(items, BatchItem{Homes, Baseline, "greedy", p})
	}
	items = append(items, BatchItem{Homes, CAGC, "greedy", testParams()})
	res := runCells(t, items...)
	small, large, cagcRef := res[0], res[1], res[2]
	// A larger buffer programs less flash on a skewed workload.
	if large.FTL.UserPrograms >= small.FTL.UserPrograms {
		t.Errorf("buffer 256 wrote %d programs, buffer 8 wrote %d — want fewer",
			large.FTL.UserPrograms, small.FTL.UserPrograms)
	}
	// Buffered writes complete at RAM speed: write latency collapses.
	if large.WriteLatency.Mean() >= cagcRef.WriteLatency.Mean()*2 {
		t.Errorf("buffered write mean %.1fµs suspiciously high",
			large.WriteLatency.Mean()/1000)
	}
}

func TestAblateWearLevel(t *testing.T) {
	// Deep churn on the low-dedup workload skews wear enough for the
	// static swap to fire. (Mechanism-level coverage with manufactured
	// skew lives in internal/ftl.)
	p := testParams()
	p.Requests = 12000
	on := p
	on.WearLevelThreshold = 2
	res := runCells(t, BatchItem{Homes, CAGC, "greedy", p}, BatchItem{Homes, CAGC, "greedy", on})
	if res[0].FTL.WLSwaps != 0 {
		t.Fatal("wear leveling ran while disabled")
	}
	// Leveling must not increase the erase-count spread.
	if res[1].EraseSpread > res[0].EraseSpread {
		t.Errorf("WL widened the spread: %d -> %d", res[0].EraseSpread, res[1].EraseSpread)
	}
}

func TestAblateIndexCapacity(t *testing.T) {
	p := testParams()
	p.IndexCapacity = 16
	res := runCells(t, BatchItem{Mail, CAGC, "greedy", p}, BatchItem{Mail, CAGC, "greedy", testParams()})
	capped, unlimited := res[0], res[1]
	// A 16-fingerprint cache forfeits dedup hits: fewer drops, more
	// migrated pages.
	if capped.FTL.GCDupDropped >= unlimited.FTL.GCDupDropped {
		t.Errorf("capped index dropped %d >= unlimited %d",
			capped.FTL.GCDupDropped, unlimited.FTL.GCDupDropped)
	}
	if capped.FTL.PagesMigrated <= unlimited.FTL.PagesMigrated {
		t.Errorf("capped index migrated %d <= unlimited %d",
			capped.FTL.PagesMigrated, unlimited.FTL.PagesMigrated)
	}
}

func TestBufferedRunEndToEnd(t *testing.T) {
	p := testParams()
	p.BufferPages = 64
	res, err := Run(Homes, Baseline, "greedy", p)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(Homes, Baseline, "greedy", testParams())
	if err != nil {
		t.Fatal(err)
	}
	// The buffer absorbs part of the write traffic.
	if res.FTL.UserPrograms >= plain.FTL.UserPrograms {
		t.Errorf("buffered programs %d >= unbuffered %d",
			res.FTL.UserPrograms, plain.FTL.UserPrograms)
	}
}

func TestBufferedCAGCStillConsistent(t *testing.T) {
	p := testParams()
	p.BufferPages = 32
	res, err := Run(Mail, CAGC, "greedy", p)
	if err != nil {
		t.Fatal(err) // Run includes the post-run invariant check
	}
	if res.FTL.GCDupDropped == 0 {
		t.Error("buffered CAGC never deduplicated")
	}
}

func TestThroughputCurve(t *testing.T) {
	depths := []int{1, 8}
	var items []BatchItem
	for _, qd := range depths {
		p := testParams()
		p.Requests = 2500
		p.QueueDepth = qd
		items = append(items, BatchItem{Mail, Baseline, "greedy", p}, BatchItem{Mail, CAGC, "greedy", p})
	}
	res := runCells(t, items...)
	for i, qd := range depths {
		if res[2*i].IOPS() <= 0 || res[2*i+1].IOPS() <= 0 {
			t.Fatalf("qd %d: zero throughput", qd)
		}
	}
	// Under saturation CAGC's lighter GC load yields at least as much
	// throughput as the baseline at the deeper queue.
	base, cg := res[2], res[3]
	if cg.IOPS() < base.IOPS()*0.95 {
		t.Errorf("CAGC %.0f IOPS well below baseline %.0f at QD8", cg.IOPS(), base.IOPS())
	}
}

func TestAblateMappingCache(t *testing.T) {
	p := testParams()
	p.MappingCache = 512
	res := runCells(t, BatchItem{Mail, CAGC, "greedy", p}, BatchItem{Mail, CAGC, "greedy", testParams()})
	tiny, full := res[0], res[1]
	// A one-page CMT must cost response time relative to a RAM map.
	if tiny.MeanLatency() <= full.MeanLatency() {
		t.Errorf("tiny CMT mean %.1fµs <= full map %.1fµs",
			tiny.MeanLatency(), full.MeanLatency())
	}
}

// The GC trigger (Table I uses 20%) is an FTL option, not a Params
// field: lower watermarks defer GC (denser victims, better WA) at the
// price of thinner reserves under bursts.
func TestAblateWatermark(t *testing.T) {
	run := func(s Scheme, mark float64) (*Result, error) {
		o := s.Options()
		o.Watermark = mark
		return runOptions(WebVM, o, "greedy", testParams())
	}
	for _, mark := range []float64{0.10, 0.25} {
		base, err := run(Baseline, mark)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := run(CAGC, mark)
		if err != nil {
			t.Fatal(err)
		}
		// CAGC's reductions must survive the trigger change.
		if cg.FTL.PagesMigrated >= base.FTL.PagesMigrated {
			t.Errorf("watermark %.2f: CAGC migrated %d >= baseline %d",
				mark, cg.FTL.PagesMigrated, base.FTL.PagesMigrated)
		}
	}
	if _, err := run(Baseline, 0.95); err == nil {
		t.Error("invalid watermark accepted")
	}
}

func TestArrayStudy(t *testing.T) {
	p := testParams()
	p.Requests = 3000
	var steered [2]*ArrayResult
	for i, s := range []Scheme{Baseline, CAGC} {
		for _, steer := range []bool{false, true} {
			r, err := RunArray(Mail, s, p, ArrayParams{Mode: "raid1", Members: 2, Stagger: true, Steer: steer})
			if err != nil {
				t.Fatal(err)
			}
			if r.Requests != 3000 {
				t.Fatalf("%v steer=%v: incomplete replay: %d", s, steer, r.Requests)
			}
			if steer {
				if r.SteeredReads == 0 {
					t.Errorf("%v: steering never fired", s)
				}
				steered[i] = r
			}
		}
	}
	// CAGC members give the mirrored volume a better read tail than
	// Baseline members under the same steering policy.
	base, cg := steered[0], steered[1]
	if cg.ReadLatency.Percentile(0.99) >= base.ReadLatency.Percentile(0.99) {
		t.Errorf("array read p99: CAGC %v >= Baseline %v",
			cg.ReadLatency.Percentile(0.99), base.ReadLatency.Percentile(0.99))
	}
}
