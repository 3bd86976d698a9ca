package sim

// Re-seeding a recycled runner is copyFrom from the snapshot master —
// the same full copy a clone makes, into arrays the runner already
// holds. The result-level matrix here is the proof that this is
// invisible: cold vs fresh vs first-recycled vs second-recycled runs
// across schemes, policies, and loop modes, DeepEqual + byte-equal
// JSON. BenchmarkReseed prices the copy on a fleet-scale device.

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
// 3000-request precondition), so the re-seed, not the replay, is the
// cost. TestEveryRecycleCopiesFull and BenchmarkReseed share it.
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

// Result-level differential matrix: for every scheme x policy cell —
// plus closed-loop and full-stack (write buffer + mapping cache)
// variants — a cold run, a fresh-clone run, and the first and second
// runs on that runner once recycled must produce DeepEqual results and
// byte-identical JSON.
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
			// With the parked list drained, the first run cuts a fresh
			// clone and parks it; the next two re-seed that same runner.
			drainParked()
			for _, leg := range []string{"fresh-clone", "first-recycled", "second-recycled"} {
				res, err := RunWarmRecycled(snap, c.mk(), spec)
				if err != nil {
					t.Fatal(err)
				}
				check(leg, res)
			}
		})
	}
}

// BenchmarkReseed times a recycled runner's re-seed on the pinned
// shape and reports the bytes it copies. The allocator-level B/op is
// ~0: the copy reuses every backing array.
func BenchmarkReseed(b *testing.B) {
	cfg, spec, replay := reseedShape(b)
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		b.Fatal(err)
	}
	r := snap.master.Clone()
	var bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := replayOn(r, snap.offset, replay, Measured{}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		bytes = r.copyFrom(snap.master)
	}
	b.ReportMetric(float64(bytes), "reseed-bytes/op")
}
