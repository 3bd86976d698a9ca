package cagc

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"cagc/internal/sim"
)

func equivParams() Params {
	return Params{DeviceBytes: 16 << 20, Requests: 4000, Seed: 3}
}

// The acceptance bar of the snapshot cache: for every scheme × policy
// cell, a cached (cloned) run is bit-identical to a cold run — same
// Result down to unexported histogram buckets, and byte-identical
// summary JSON.
func TestWarmRunsMatchColdRunsAllSchemesAndPolicies(t *testing.T) {
	for _, s := range Schemes {
		for _, policy := range []string{"greedy", "random", "cost-benefit"} {
			t.Run(fmt.Sprintf("%s-%s", s, policy), func(t *testing.T) {
				p := equivParams()
				cold := p
				cold.ColdStart = true
				want, err := Run(Mail, s, policy, cold)
				if err != nil {
					t.Fatal(err)
				}
				// First warm run builds the snapshot (miss), second is a
				// pure cache hit; both must match the cold run exactly.
				for i := 0; i < 2; i++ {
					got, err := Run(Mail, s, policy, p)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("warm run %d diverged from cold run:\ncold %v\nwarm %v", i, want, got)
					}
					var cb, wb bytes.Buffer
					if err := WriteJSON(&cb, want); err != nil {
						t.Fatal(err)
					}
					if err := WriteJSON(&wb, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(cb.Bytes(), wb.Bytes()) {
						t.Fatalf("warm run %d summary JSON differs from cold run", i)
					}
				}
			})
		}
	}
}

// The closed-loop row of the determinism checks (cagcsim -qd 8): the
// issue order is a pure function of the configuration, so a cold run,
// a warm run and a repeat render the same bytes for every scheme, with
// and without a write buffer in front of the FTL.
func TestClosedLoopRunsAreDeterministic(t *testing.T) {
	for _, s := range Schemes {
		for _, buffer := range []int{0, 64} {
			t.Run(fmt.Sprintf("%s-buffer%d", s, buffer), func(t *testing.T) {
				p := equivParams()
				p.QueueDepth = 8
				p.BufferPages = buffer
				var docs [3]bytes.Buffer
				for i := range docs {
					q := p
					q.ColdStart = i == 0
					res, err := Run(Mail, s, "greedy", q)
					if err != nil {
						t.Fatal(err)
					}
					if err := WriteJSON(&docs[i], res); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(docs[i].Bytes(), docs[0].Bytes()) {
						t.Fatalf("closed-loop run %d renders a different document than the cold run", i)
					}
				}
			})
		}
	}
}

// A measured-seed sweep and a queue-depth sweep must share one warm
// state: only the first run of each (workload, scheme, policy) cell
// misses.
func TestCacheSharingAcrossSeedsAndQueueDepths(t *testing.T) {
	ResetWarmCache()
	defer ResetWarmCache()
	p := equivParams()
	p.Requests = 1500
	for _, seed := range []int64{11, 12, 13} {
		q := p
		q.Seed = seed
		if _, err := Run(Homes, Baseline, "greedy", q); err != nil {
			t.Fatal(err)
		}
	}
	for _, qd := range []int{2, 8} {
		q := p
		q.Seed = 11
		q.QueueDepth = qd
		if _, err := Run(Homes, Baseline, "greedy", q); err != nil {
			t.Fatal(err)
		}
	}
	st := WarmCacheStats()
	if st.Misses != 1 || st.Hits != 4 || st.Snapshots != 1 {
		t.Fatalf("seed+QD sweep should share one snapshot: %+v", st)
	}

	// The random policy's PRNG position is part of the warm state, so
	// distinct seeds must NOT share a snapshot.
	ResetWarmCache()
	for _, seed := range []int64{11, 12} {
		q := p
		q.Seed = seed
		if _, err := Run(Homes, Baseline, "random", q); err != nil {
			t.Fatal(err)
		}
	}
	if st := WarmCacheStats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("random-policy seeds must not share a snapshot: %+v", st)
	}
}

// ColdStart must bypass the cache entirely — no hits, no misses, no
// retained snapshots.
func TestColdStartBypassesCache(t *testing.T) {
	ResetWarmCache()
	defer ResetWarmCache()
	p := equivParams()
	p.Requests = 1000
	p.ColdStart = true
	if _, err := Run(Homes, Baseline, "greedy", p); err != nil {
		t.Fatal(err)
	}
	if st := WarmCacheStats(); st.Hits+st.Misses+st.Evictions != 0 || st.Snapshots != 0 {
		t.Fatalf("cold start touched the cache: %+v", st)
	}
}

// The cache must compose with RunBatch fan-out: concurrent workers
// hitting the same key share one build, workers on distinct keys build
// independently, and every result stays bit-identical to its cold run.
func TestCacheUnderParallelFanOut(t *testing.T) {
	ResetWarmCache()
	defer ResetWarmCache()
	p := equivParams()
	p.Requests = 1500
	var items []BatchItem
	for _, s := range Schemes {
		for seed := int64(1); seed <= 4; seed++ {
			q := p
			q.Seed = seed
			items = append(items, BatchItem{Mail, s, "greedy", q})
		}
	}
	b := RunBatch(items, 0)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	st := WarmCacheStats()
	if st.Snapshots != len(Schemes) {
		t.Fatalf("expected one snapshot per scheme, got %+v", st)
	}
	if st.Hits+st.Misses != uint64(len(items)) {
		t.Fatalf("every run must consult the cache: %+v", st)
	}
	for i, it := range items {
		q := it.Params
		q.ColdStart = true
		want, err := Run(Mail, it.Scheme, "greedy", q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, b.Results[i]) {
			t.Fatalf("parallel warm run %v seed %d diverged from cold run", it.Scheme, it.Params.Seed)
		}
	}
}

// The registry is a bounded LRU: recency protects entries, inserting
// past capacity evicts the least recently used one, and an evicted key
// rebuilds on its next request with results still bit-identical.
func TestCacheLRUEviction(t *testing.T) {
	ResetWarmCache()
	defer ResetWarmCache()
	warmCache.setCapacity(2)
	defer warmCache.setCapacity(defaultWarmCapacity)

	p := equivParams()
	p.Requests = 1000
	at := func(util float64) Params { // utilization is part of the warm key
		q := p
		q.Utilization = util
		return q
	}
	run := func(q Params) *Result {
		t.Helper()
		res, err := Run(Homes, Baseline, "greedy", q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	a, b, c := at(0.50), at(0.55), at(0.60)
	run(a)
	wantB := run(b)
	if st := WarmCacheStats(); st.Snapshots != 2 || st.Evictions != 0 {
		t.Fatalf("two keys at capacity 2 should both be resident: %+v", st)
	}
	run(a) // touch A so B becomes the LRU entry
	run(c) // third key: evicts B, not the recently used A
	st := WarmCacheStats()
	if st.Evictions != 1 || st.Snapshots != 2 {
		t.Fatalf("inserting past capacity should evict exactly one: %+v", st)
	}
	hitsBefore := st.Hits
	run(a) // still resident: hit
	if st := WarmCacheStats(); st.Hits != hitsBefore+1 || st.Misses != 3 {
		t.Fatalf("recently used key was evicted: %+v", st)
	}
	gotB := run(b) // evicted: rebuilds, and the rebuild is bit-identical
	st = WarmCacheStats()
	if st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("evicted key should rebuild (miss) and displace again: %+v", st)
	}
	if !reflect.DeepEqual(wantB, gotB) {
		t.Fatal("rebuilt snapshot diverged from its first build")
	}
	if st.Capacity != 2 {
		t.Fatalf("Capacity = %d, want 2", st.Capacity)
	}
}

// Shrinking the registry below its population evicts immediately,
// oldest first; capacities below 1 clamp to 1.
func TestCacheCapacityShrink(t *testing.T) {
	ResetWarmCache()
	defer ResetWarmCache()
	defer warmCache.setCapacity(defaultWarmCapacity)

	p := equivParams()
	p.Requests = 1000
	for _, util := range []float64{0.50, 0.55, 0.60} {
		q := p
		q.Utilization = util
		if _, err := Run(Homes, Baseline, "greedy", q); err != nil {
			t.Fatal(err)
		}
	}
	if st := WarmCacheStats(); st.Snapshots != 3 {
		t.Fatalf("setup: want 3 resident snapshots, got %+v", st)
	}
	warmCache.setCapacity(0) // clamps to 1
	st := WarmCacheStats()
	if st.Snapshots != 1 || st.Evictions != 2 || st.Capacity != 1 {
		t.Fatalf("shrink to capacity 1: %+v", st)
	}
	// The survivor must be the most recently used key (util=0.60).
	q := p
	q.Utilization = 0.60
	hitsBefore := st.Hits
	if _, err := Run(Homes, Baseline, "greedy", q); err != nil {
		t.Fatal(err)
	}
	if st := WarmCacheStats(); st.Hits != hitsBefore+1 {
		t.Fatalf("most recently used key should survive the shrink: %+v", st)
	}
}

// The registry under service-shaped churn: concurrent runs spread over
// more warm states than the registry holds, so snapshot builds, clone
// acquire/release, and LRU eviction all race (run with -race). Every
// result must still be byte-identical to its serial reference, and the
// clone gauge must balance back to its pre-churn level — an eviction
// must never strand or corrupt a clone another goroutine is replaying.
func TestCacheConcurrentChurnWithEviction(t *testing.T) {
	ResetWarmCache()
	defer ResetWarmCache()
	warmCache.setCapacity(2)
	defer warmCache.setCapacity(defaultWarmCapacity)

	utils := []float64{0.50, 0.55, 0.60, 0.65}
	base := equivParams()
	base.Requests = 1500

	// Serial references, cold so they neither populate the registry nor
	// touch the clone path.
	refs := make([][]byte, len(utils))
	for i, u := range utils {
		p := base
		p.Utilization = u
		p.ColdStart = true
		res, err := Run(Mail, CAGC, "greedy", p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		refs[i] = buf.Bytes()
	}

	preLive := sim.CloneGaugeStats().Live

	const goroutines = 8
	const itersPer = 6
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < itersPer; i++ {
				// Stride so neighbours churn different states at once.
				idx := (g + i) % len(utils)
				p := base
				p.Utilization = utils[idx]
				res, err := Run(Mail, CAGC, "greedy", p)
				if err != nil {
					errc <- err
					return
				}
				var buf bytes.Buffer
				if err := WriteJSON(&buf, res); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(buf.Bytes(), refs[idx]) {
					errc <- fmt.Errorf("goroutine %d iter %d (util %g): result diverged from serial reference", g, i, utils[idx])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := WarmCacheStats()
	if got := st.Hits + st.Misses; got != goroutines*itersPer {
		t.Fatalf("cache lookups %d, want %d: %+v", got, goroutines*itersPer, st)
	}
	// Four states over a two-slot registry must have churned.
	if st.Evictions == 0 {
		t.Fatalf("no evictions despite working set exceeding capacity: %+v", st)
	}
	if st.Snapshots > 2 {
		t.Fatalf("registry over capacity: %+v", st)
	}
	if live := sim.CloneGaugeStats().Live; live != preLive {
		t.Fatalf("clone gauge leaked under churn: live %d, want %d", live, preLive)
	}
}

// The snapshot registry holds every warm state of the full evaluation:
// RunAllExperiments preconditions each state once and evicts none.
// Warm keys leave out the request count, so a short evaluation touches
// the states of figures at its defaults.
func TestWarmCapacityHoldsTheEvaluation(t *testing.T) {
	ResetWarmCache()
	defer ResetWarmCache()
	p := Params{DeviceBytes: 16 << 20, Requests: 1500, Seed: 1, Utilization: 0.55}
	if err := RunAllExperiments(p, io.Discard); err != nil {
		t.Fatal(err)
	}
	st := WarmCacheStats()
	if st.Evictions != 0 || int(st.Misses) != st.Snapshots || st.Snapshots > defaultWarmCapacity {
		t.Fatalf("full evaluation: %d misses, %d evictions, %d of %d snapshots; want every state built once and kept",
			st.Misses, st.Evictions, st.Snapshots, st.Capacity)
	}
}
