package main

// The traced pass. Spans are recorded by the benchmark around the calls
// it makes itself: for a CLI workload an in-process replica of the
// CLI's sequence (build, precondition, source, replay, render), whose
// bytes must equal the CLI's document; for the service the client-side
// job phases (serve.go). Spans inside the program are a later change.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cagc"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// span is one timed interval. Parent is the ID of the span that caused
// it (0 for a root); spans of one iteration share Iter.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Iter    int     `json:"iter"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

func (t *tracer) add(name string, parent, iter int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: iter, Name: name, StartUs: t.us(start), EndUs: t.us(end)})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, iter int, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(name, parent, iter, start, time.Now())
	return err
}

// medianUs returns the median over iterations of the summed duration
// (self=false) or self time (self=true: duration minus children) of the
// spans named name.
func (t *tracer) medianUs(name string, self bool) float64 {
	children := map[int]float64{}
	for _, s := range t.spans {
		children[s.Parent] += s.EndUs - s.StartUs
	}
	perIter := map[int]float64{}
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := s.EndUs - s.StartUs
		if self {
			d -= children[s.ID]
		}
		perIter[s.Iter] += d
	}
	var v []float64
	for _, d := range perIter {
		v = append(v, d)
	}
	return median(v)
}

func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(map[string]any{"unit": "us", "spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runConfig assembles the simulator configuration and workload spec of
// one run exactly as cagc.Run does for the same Params (cagc.buildRun
// is unexported). The replica's byte comparison against the CLI keeps
// this copy honest.
func runConfig(w cagc.Workload, s cagc.Scheme, p cagc.Params) (sim.Config, trace.Spec, error) {
	opts := s.Options()
	pol, err := ftl.PolicyByName("greedy", p.Seed)
	if err != nil {
		return sim.Config{}, trace.Spec{}, err
	}
	opts.Policy = pol
	cfg := sim.Config{Device: flash.ScaledConfig(p.DeviceBytes), Options: opts, Utilization: p.Utilization}
	spec, err := trace.Preset(w, sim.LogicalPagesOf(cfg), p.Requests, p.Seed)
	return cfg, spec, err
}

// defaultParams are the CLI's defaults for the flags the workloads
// leave alone.
func defaultParams(requests int, seed int64) cagc.Params {
	return cagc.Params{DeviceBytes: 16 << 20, Requests: requests, Seed: seed, Utilization: 0.55, RefThreshold: 1}
}

// timedSource wraps a trace.Source and accumulates the wall time spent
// inside Next, so replay time can be split into source and simulator.
type timedSource struct {
	src  trace.Source
	in   time.Duration
	reqs uint64
}

func (t *timedSource) Next() (trace.Request, bool) {
	t0 := time.Now()
	r, ok := t.src.Next()
	t.in += time.Since(t0)
	if ok {
		t.reqs++
	}
	return r, ok
}

// Err forwards the wrapped source's terminal error, so a decode failure
// still fails the replay.
func (t *timedSource) Err() error { return trace.SourceErr(t.src) }

var _ trace.ErrSource = (*timedSource)(nil)

// replicaResult is what one in-process replica hands to the ledger.
type replicaResult struct {
	doc    []byte
	res    *cagc.Result
	cfg    sim.Config
	spec   trace.Spec
	stream trace.StreamStats // replay workloads only
	wall   time.Duration
}

// replica reproduces one run in process, with a span around each call
// into a layer: sim.NewRunner, Runner.Precondition, the source (a
// generator, or trace.OpenFile for a replay), Runner.Replay and the
// render. key stamps the document the way the CLI and the service do;
// the replay path renders keyless, like cagcsim -replay.
func replica(t *tracer, iter int, w cagc.Workload, s cagc.Scheme, p cagc.Params, tracePath string) (replicaResult, error) {
	var out replicaResult
	start := time.Now()
	var (
		runner *sim.Runner
		offset event.Time
		src    = &timedSource{}
		closer = func() error { return nil }
		stream *trace.Stream
	)
	cfg, spec, err := runConfig(w, s, p)
	if err != nil {
		return out, err
	}
	out.cfg, out.spec = cfg, spec
	root := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: root, Iter: iter, Name: "run", StartUs: t.us(start)})
	steps := []struct {
		name string
		fn   func() error
	}{
		{"sim.NewRunner", func() (err error) { runner, err = sim.NewRunner(cfg); return }},
		{"Runner.Precondition", func() error {
			pre, err := trace.NewPreconditioner(spec)
			if err != nil {
				return err
			}
			offset, err = runner.Precondition(pre)
			return err
		}},
		{"source.open", func() (err error) {
			if tracePath == "" {
				src.src, err = trace.NewGenerator(spec)
				return
			}
			stream, closer, err = trace.OpenFile(tracePath, trace.OpenOptions{}, trace.StreamOptions{})
			src.src = stream
			return
		}},
	}
	for _, st := range steps {
		if err := t.timed(st.name, root, iter, st.fn); err != nil {
			return out, fmt.Errorf("replica: %s: %w", st.name, err)
		}
	}
	defer closer()
	t0 := time.Now()
	out.res, err = runner.Replay(src, offset, spec.Name)
	t1 := time.Now()
	if err != nil {
		return out, fmt.Errorf("replica: Runner.Replay: %w", err)
	}
	replay := t.add("Runner.Replay", root, iter, t0, t1)
	// One aggregate child for all Next calls (a span per call would be
	// a quarter of a million spans per iteration).
	t.add("trace.Source.Next (sum)", replay, iter, t0, t0.Add(src.in))
	if stream != nil {
		out.stream = stream.Stats()
	}
	var doc bytes.Buffer
	err = t.timed("cagc.WriteJSON", root, iter, func() error {
		if tracePath != "" {
			return cagc.WriteJSON(&doc, out.res)
		}
		return cagc.WriteJSONKey(&doc, out.res, cagc.ConfigKey(w, s, "greedy", p))
	})
	end := time.Now()
	t.spans[root-1].EndUs = t.us(end)
	out.doc, out.wall = doc.Bytes(), end.Sub(start)
	return out, err
}
