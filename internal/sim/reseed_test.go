package sim

// Dirty-chunk re-seeding is an optimization with an exact contract: a
// tracked runner, whose copyFrom copies only the chunks it dirtied,
// must end bit-identical to an untracked one, whose copyFrom copies
// everything, and both must reproduce a cold run. The tests here are
// the differential proof: state-level (two runners, identical
// histories, dirty vs full re-seed, every layer equal field by field)
// and result-level (cold vs fresh vs first-recycled (full) vs
// dirty-recycled across schemes, policies, and loop modes, DeepEqual +
// byte-equal JSON). BenchmarkReseed and TestReseedBytesRatio pin the
// payoff: a short replay on a large device re-seeds in a fraction of
// the full-copy bytes.

import (
	"encoding/json"
	"reflect"
	"testing"

	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/trace"
)

// reseedShape is the pinned benchmark configuration: a fleet-scale
// device (128 MiB) with a short measured replay (50 requests against a
// 3000-request precondition), so a run dirties a small fraction of the
// warm state. The byte-ratio guard and BenchmarkReseed share it.
func reseedShape(t testing.TB) (Config, trace.Spec, trace.Spec) {
	t.Helper()
	cfg := Config{
		Device:      flash.ScaledConfig(128 << 20),
		Options:     ftl.CAGCOptions(),
		Utilization: 0.55,
	}
	spec, err := trace.Preset(trace.Mail, LogicalPagesOf(cfg), 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	replay := spec
	replay.Requests = 50
	return cfg, spec, replay
}

// minReseedRatio is how many times fewer bytes a dirty-chunk re-seed
// must copy than a full copy on the pinned shape. It was 4 until private
// pages left the dedup index (PR 25): the full copy fell from 1 286 796
// to 545 704 B, because a host write no longer costs an index entry and
// the index's tables were most of the FTL's state, but the dirty
// re-seed only from 258 932 to 142 480 B, because what it still copies
// — the device's dirtied blocks (58 KB), the mapping and owner chunks a
// write dirties either way, the small state copied whole — did not
// shrink. So the ratio fell from 4.97 to 3.83. With dirty tracking off
// both copies are the full copy: ratio 1.
const minReseedRatio = 3.5

// The re-seed byte-ratio guard: on the pinned shape, a dirty-chunk
// re-seed must copy at least minReseedRatio times fewer bytes than the
// full copy an untracked runner makes. Everything here is deterministic
// — the same trace dirties the same chunks every run — so the guard is
// exact, not statistical.
func TestReseedBytesRatio(t *testing.T) {
	cfg, spec, replay := reseedShape(t)
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	// reseedAfterReplay replays on a fresh clone — tracked from the cut
	// or left untracked — and returns the bytes its re-seed copies.
	reseedAfterReplay := func(tracked bool) int {
		r := snap.master.Clone()
		if tracked {
			r.enableCOW()
		}
		if _, err := replayOn(r, snap.offset, replay); err != nil {
			t.Fatal(err)
		}
		return r.copyFrom(snap.master)
	}
	dirty, full := reseedAfterReplay(true), reseedAfterReplay(false)
	if dirty <= 0 || full <= 0 {
		t.Fatalf("degenerate byte counts: dirty %d, full %d", dirty, full)
	}
	if float64(full) < minReseedRatio*float64(dirty) {
		t.Fatalf("dirty re-seed copied %d bytes, full %d: ratio %.2f < %v",
			dirty, full, float64(full)/float64(dirty), minReseedRatio)
	}
}

// State-level differential fuzz: a tracked runner and a fresh untracked
// one replay identical request streams, then both re-seed — the first
// copying dirty chunks only, the second everything. Every layer must
// end equal field by field — including the tracker bookkeeping, once
// the reference starts tracking too — across varied seeds, workloads,
// and replay lengths.
func TestReseedStateMatchesFullCopy(t *testing.T) {
	rounds := []struct {
		workload trace.WorkloadName
		seed     int64
		requests int
	}{
		{trace.Mail, 1, 120},
		{trace.Homes, 2, 450},
		{trace.WebVM, 3, 1100},
		{trace.Mail, 4, 2600},
	}
	opts := ftl.CAGCOptions()
	opts.Policy = ftl.NewRandomPolicy(7)
	opts.MappingCache = 1024
	cfg := smallConfig(opts)
	cfg.BufferPages = 32
	spec := specFor(t, cfg, trace.Mail, 3000)
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh runners are untracked; track r1 from the cut so its direct
	// re-seeds below take the dirty-chunk path.
	r1 := snap.master.Clone()
	r1.enableCOW()
	for _, round := range rounds {
		replay, err := trace.Preset(round.workload, r1.LogicalPages(), round.requests, round.seed)
		if err != nil {
			t.Fatal(err)
		}
		replay.PrecondSeed = spec.PrecondSeed
		r2 := snap.master.Clone() // untracked: the full-copy reference
		res1, err := replayOn(r1, snap.offset, replay)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := replayOn(r2, snap.offset, replay)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res1, res2) {
			t.Fatalf("%s/%d: identical replays diverged before re-seeding", round.workload, round.seed)
		}
		r1.copyFrom(snap.master) // dirty-chunk path
		r2.copyFrom(snap.master) // full copy
		r2.enableCOW()           // clean trackers, comparable with r1's
		if d := diffRunners(r1, r2, scratchFields); d != "" {
			t.Fatalf("%s/%d: dirty and full re-seed diverged at %s", round.workload, round.seed, d)
		}
	}
}

// Result-level differential matrix: for every scheme x policy cell —
// plus closed-loop and full-stack (write buffer + mapping cache)
// variants — a cold run, a fresh-clone run, a first-recycled run (the
// untracked runner's full copy) and a dirty-recycled run must produce
// DeepEqual results and byte-identical JSON.
func TestReseedDifferentialMatrix(t *testing.T) {
	schemes := []struct {
		name string
		opts func() ftl.Options
	}{
		{"baseline", ftl.BaselineOptions},
		{"inline", ftl.InlineDedupeOptions},
		{"cagc", ftl.CAGCOptions},
	}
	policies := []struct {
		name   string
		policy func() ftl.VictimPolicy
	}{
		{"greedy", func() ftl.VictimPolicy { return ftl.GreedyPolicy{} }},
		{"random", func() ftl.VictimPolicy { return ftl.NewRandomPolicy(7) }},
		{"cost-benefit", func() ftl.VictimPolicy { return ftl.CostBenefitPolicy{} }},
	}
	// Each cell builds its Config fresh per use: stateful policies
	// (RandomPolicy) carry RNG state, so the cold run and the snapshot
	// must each get their own instance.
	type cell struct {
		name string
		mk   func() Config
	}
	var cells []cell
	for _, s := range schemes {
		for _, p := range policies {
			s, p := s, p
			cells = append(cells, cell{s.name + "/" + p.name, func() Config {
				opts := s.opts()
				opts.Policy = p.policy()
				return smallConfig(opts)
			}})
		}
		// Closed-loop variant, one per scheme.
		s := s
		cells = append(cells, cell{s.name + "/closed-loop", func() Config {
			closed := smallConfig(s.opts())
			closed.QueueDepth = 8
			return closed
		}})
	}
	// Full stack: buffer + cached mapping table + stateful policy.
	cells = append(cells, cell{"cagc/all-layers", func() Config {
		opts := ftl.CAGCOptions()
		opts.Policy = ftl.NewRandomPolicy(7)
		opts.MappingCache = 1024
		stack := smallConfig(opts)
		stack.BufferPages = 32
		stack.QueueDepth = 8
		return stack
	}})

	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.mk()
			spec := specFor(t, cfg, trace.Mail, 1200)
			cold, err := Run(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			coldJSON, err := json.Marshal(cold)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := NewSnapshot(c.mk(), spec)
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, res *Result) {
				t.Helper()
				if !reflect.DeepEqual(cold, res) {
					t.Fatalf("%s run diverged from cold run", label)
				}
				j, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if string(j) != string(coldJSON) {
					t.Fatalf("%s run JSON differs from cold run JSON", label)
				}
			}
			// First run cuts the fresh, untracked clone and parks it.
			fresh, err := RunWarmRecycled(snap, c.mk(), spec)
			if err != nil {
				t.Fatal(err)
			}
			check("fresh-clone", fresh)
			// Second run is its first re-seed: a full copy, after which
			// tracking starts.
			first, err := RunWarmRecycled(snap, c.mk(), spec)
			if err != nil {
				t.Fatal(err)
			}
			check("first-recycled", first)
			// Third run re-seeds it through the dirty-chunk path.
			dirty, err := RunWarmRecycled(snap, c.mk(), spec)
			if err != nil {
				t.Fatal(err)
			}
			check("dirty-recycled", dirty)
		})
	}
}

// BenchmarkReseed measures the dirty-chunk re-seed on the pinned shape
// and reports the exact bytes each path copies (reseed-bytes/op vs
// full-bytes/op) — the allocator-level B/op is ~0 for both paths, since
// both reuse every backing array.
func BenchmarkReseed(b *testing.B) {
	cfg, spec, replay := reseedShape(b)
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		b.Fatal(err)
	}
	r := snap.master.Clone()
	if _, err := replayOn(r, snap.offset, replay); err != nil {
		b.Fatal(err)
	}
	fullBytes := r.copyFrom(snap.master) // still untracked: the full copy
	r.enableCOW()                        // from here on, the dirty path

	var dirtyBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := replayOn(r, snap.offset, replay); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		dirtyBytes = r.copyFrom(snap.master)
	}
	b.ReportMetric(float64(dirtyBytes), "reseed-bytes/op")
	b.ReportMetric(float64(fullBytes), "full-bytes/op")
}
