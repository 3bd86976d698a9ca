package sim

// The replay's order contract, pinned differentially. Until PR 24 the
// replay ran on an event queue: arrivals (open loop) and issue tokens
// (closed loop) were events popped in (time, push sequence) order.
// replayRef below is that pump, kept as a test-only reference on the
// plain heap scheduler and driving the very same serveRequest / idle-GC
// / record steps; Runner.Replay's direct loops must return a deeply
// equal Result on every configuration and every kind of source.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cagc/internal/event"
	"cagc/internal/ftl"
	"cagc/internal/trace"
)

// refPump is the event-driven replay state: handlers plus the
// open-loop prefetch ring (two scheduled arrivals: the one firing and
// the one whose timestamp the idle-GC decision reads).
type refPump struct {
	st   *replayState
	es   *event.Sim
	err  error
	ring [2]trace.Request
	head int
	n    int
	eof  bool
	// floor keeps scheduled arrival times nondecreasing for a source
	// whose timestamps go backwards: the clamped arrival still fires in
	// trace order and is served with its original timestamp.
	floor event.Time
}

func (p *refPump) fail(err error) {
	p.err = err
	p.es.Stop()
}

func (p *refPump) fill() {
	for !p.eof && p.n < len(p.ring) {
		req, ok, err := p.st.next()
		if err != nil {
			p.fail(err)
		}
		if !ok {
			p.eof = true
			return
		}
		slot := (p.head + p.n) % len(p.ring)
		p.ring[slot] = req
		at := max(req.At, p.floor)
		p.floor = at
		if err := p.es.AtArg(at, p.onArrive, uint64(slot)); err != nil {
			p.fail(err)
			return
		}
		p.n++
	}
}

func (p *refPump) onArrive(_ event.Time, arg uint64) {
	if p.err != nil {
		return
	}
	st := p.st
	req := p.ring[arg]
	p.head = (int(arg) + 1) % len(p.ring)
	p.n--
	if p.fill(); p.err != nil {
		return
	}
	done, err := st.r.serveRequest(req)
	if err != nil {
		p.fail(err)
		return
	}
	if p.n > 0 {
		if nextAt := p.ring[p.head].At; nextAt-req.At > idleGCGap {
			if err := st.r.f.IdleGC(req.At, nextAt-idleGCMargin, st.idleTarget); err != nil {
				p.fail(err)
				return
			}
		}
	}
	if err := st.record(req, done); err != nil {
		p.fail(err)
	}
}

func (p *refPump) onRelease(now event.Time, arg uint64) {
	if p.err != nil {
		return
	}
	st := p.st
	req, ok, err := st.next()
	if err != nil {
		p.fail(err)
	}
	if !ok {
		return // the token dies; the queue drains
	}
	req.At = event.Time(arg)
	done, err := st.r.serveRequest(req)
	if err != nil {
		p.fail(err)
		return
	}
	_ = p.es.AtArg(max(done, now), p.onRelease, uint64(done))
	if err := st.record(req, done); err != nil {
		p.fail(err)
	}
}

// replayRef is Runner.Replay with the event-driven pump in place of the
// direct loops.
func (r *Runner) replayRef(src trace.Source, offset event.Time, workload string) (*Result, error) {
	st, err := r.beginReplay(src, offset, workload)
	if err != nil {
		return nil, err
	}
	p := &refPump{st: st, es: event.NewSimOpts(event.SchedHeap, 0)}
	if qd := r.cfg.QueueDepth; qd > 0 {
		for i := 0; i < qd; i++ {
			if err := p.es.AtArg(offset, p.onRelease, uint64(offset)); err != nil {
				return nil, err
			}
		}
	} else {
		p.fill()
	}
	p.es.Run()
	if p.err != nil {
		return nil, p.err
	}
	return st.finish()
}

// mapSource rewrites every request of a source (i is the 0-based
// request index).
type mapSource struct {
	src trace.Source
	i   int
	f   func(i int, r *trace.Request)
}

func (m *mapSource) Next() (trace.Request, bool) {
	r, ok := m.src.Next()
	if ok {
		m.f(m.i, &r)
		m.i++
	}
	return r, ok
}

// failingSource ends after n requests with a decode error, the way a
// truncated trace file does.
type failingSource struct {
	src trace.Source
	n   int
	err error
}

func (f *failingSource) Next() (trace.Request, bool) {
	if f.n == 0 {
		f.err = fmt.Errorf("synthetic decode failure")
		return trace.Request{}, false
	}
	f.n--
	return f.src.Next()
}

func (f *failingSource) Err() error { return f.err }

func TestReplayMatchesEventDrivenReference(t *testing.T) {
	const reqs = 2500
	type variant struct {
		name    string
		opts    ftl.Options
		mut     func(*Config)
		tenants int
		// wrap decorates the measured source; logical is the device's
		// exported page count.
		wrap    func(src trace.Source, logical uint64) trace.Source
		wantErr string
	}
	schemes := []struct {
		name string
		opts func() ftl.Options
	}{
		{"baseline", ftl.BaselineOptions},
		{"inline", ftl.InlineDedupeOptions},
		{"cagc", ftl.CAGCOptions},
	}
	var variants []variant
	for _, s := range schemes {
		for _, qd := range []int{0, 1, 4, 32} {
			variants = append(variants, variant{
				name: fmt.Sprintf("%s/qd%d", s.name, qd),
				opts: s.opts(),
				mut:  func(c *Config) { c.QueueDepth = qd },
			})
		}
	}
	stack := func(qd int) func(*Config) {
		return func(c *Config) {
			c.BufferPages = 32
			c.Options.MappingCache = 256
			c.QueueDepth = qd
		}
	}
	// Every 7th request starts past the address space: it is clipped to
	// zero pages and completes at time 0, before the closed-loop clock —
	// the case the max(done, clock) key and the FIFO tie-break exist for.
	clip := func(src trace.Source, logical uint64) trace.Source {
		return &mapSource{src: src, f: func(i int, r *trace.Request) {
			if i%7 == 0 {
				r.LPN = logical + uint64(i)
			}
		}}
	}
	// Timestamps that step backwards every third request (the old
	// pump's floor case): served in trace order, at their own times.
	backwards := func(src trace.Source, _ uint64) trace.Source {
		return &mapSource{src: src, f: func(i int, r *trace.Request) {
			if i%3 == 2 {
				r.At -= 3 * event.Millisecond
			}
		}}
	}
	truncated := func(src trace.Source, _ uint64) trace.Source {
		return &failingSource{src: src, n: reqs / 2}
	}
	variants = append(variants,
		variant{name: "buffer+cmt/open", opts: ftl.CAGCOptions(), mut: stack(0)},
		variant{name: "buffer+cmt/qd8", opts: ftl.CAGCOptions(), mut: stack(8)},
		variant{name: "tenants/open", opts: ftl.CAGCOptions(), tenants: 3},
		variant{name: "tenants/qd4", opts: ftl.CAGCOptions(), tenants: 3,
			mut: func(c *Config) { c.QueueDepth = 4 }},
		variant{name: "clipped/open", opts: ftl.CAGCOptions(), wrap: clip},
		variant{name: "clipped/qd1", opts: ftl.CAGCOptions(), wrap: clip,
			mut: func(c *Config) { c.QueueDepth = 1 }},
		variant{name: "clipped/qd4", opts: ftl.InlineDedupeOptions(), wrap: clip,
			mut: func(c *Config) { c.QueueDepth = 4 }},
		variant{name: "clipped/qd32", opts: ftl.CAGCOptions(), wrap: clip,
			mut: func(c *Config) { c.QueueDepth = 32 }},
		variant{name: "backwards/open", opts: ftl.CAGCOptions(), wrap: backwards},
		variant{name: "backwards/qd4", opts: ftl.CAGCOptions(), wrap: backwards,
			mut: func(c *Config) { c.QueueDepth = 4 }},
		variant{name: "truncated/open", opts: ftl.CAGCOptions(), wrap: truncated,
			wantErr: "synthetic decode failure"},
		variant{name: "truncated/qd4", opts: ftl.CAGCOptions(), wrap: truncated,
			mut: func(c *Config) { c.QueueDepth = 4 }, wantErr: "synthetic decode failure"},
	)

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := smallConfig(v.opts)
			if v.mut != nil {
				v.mut(&cfg)
			}
			spec := specFor(t, cfg, trace.Mail, reqs)
			snap, err := NewSnapshot(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			// Both sides replay a fresh clone of one warm state over a
			// freshly built, identical source.
			run := func(replay func(*Runner, trace.Source, event.Time, string) (*Result, error)) (*Result, error) {
				r, err := snap.NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var src trace.Source
				if v.tenants > 0 {
					src = tenantSource(t, r, v.tenants, reqs)
				} else if src, err = trace.NewGenerator(spec); err != nil {
					t.Fatal(err)
				}
				if v.wrap != nil {
					src = v.wrap(src, r.LogicalPages())
				}
				return replay(r, src, snap.Offset(), "diff")
			}
			got, gotErr := run((*Runner).Replay)
			want, wantErr := run((*Runner).replayRef)
			if v.wantErr != "" {
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() ||
					!strings.Contains(gotErr.Error(), v.wantErr) {
					t.Fatalf("errors: direct %v, reference %v; want both %q", gotErr, wantErr, v.wantErr)
				}
				if got != nil || want != nil {
					t.Fatal("a failed replay returned a result")
				}
				return
			}
			if gotErr != nil || wantErr != nil {
				t.Fatalf("direct err %v, reference err %v", gotErr, wantErr)
			}
			if got.Requests == 0 {
				t.Fatal("empty replay")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("direct loop diverges from the event-driven reference:\ndirect:    %v\nreference: %v", got, want)
			}
		})
	}
}

// tenantSource installs n equal tenant ranges on r and returns the
// merged stream of one generator per tenant, as a scenario run builds
// it.
func tenantSource(t *testing.T, r *Runner, n, reqs int) trace.Source {
	t.Helper()
	share := r.LogicalPages() / uint64(n)
	workloads := []trace.WorkloadName{trace.Homes, trace.WebVM, trace.Mail}
	srcs := make([]trace.Source, n)
	ranges := make([]trace.TenantRange, n)
	for i := range srcs {
		base := share * uint64(i)
		ranges[i] = trace.TenantRange{Name: fmt.Sprint("t", i), Base: base, Pages: share,
			SLO: 300 * event.Microsecond}
		spec, err := trace.Preset(workloads[i%len(workloads)], share, reqs/n, int64(7+i))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trace.NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = &trace.Offset{Src: gen, Base: base}
	}
	r.SetTenants(ranges)
	return trace.Merge(srcs...)
}

// Cancellation ends both pumps at the same request: a context that is
// done at the first poll fails the replay, in either mode.
func TestReplayCancelEndsTheLoop(t *testing.T) {
	for _, qd := range []int{0, 4} {
		cfg := smallConfig(ftl.CAGCOptions())
		cfg.QueueDepth = qd
		spec := specFor(t, cfg, trace.Mail, 4*cancelPollEvery)
		snap, err := NewSnapshot(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Ctx = ctx
		r, err := snap.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trace.NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Cancel from inside the stream, before the first poll.
		served := 0
		src := &mapSource{src: gen, f: func(i int, _ *trace.Request) {
			served = i + 1
			if i == 10 {
				cancel()
			}
		}}
		if _, err := r.Replay(src, snap.Offset(), "cancel"); err == nil ||
			!strings.Contains(err.Error(), "replay canceled") {
			t.Fatalf("qd %d: err = %v, want a replay-canceled error", qd, err)
		}
		// The loop stops at the poll, not at the end of the trace: at
		// most the look-ahead is pulled past it.
		if served > cancelPollEvery+1 {
			t.Errorf("qd %d: %d requests pulled after cancellation at the %d-request poll",
				qd, served, cancelPollEvery)
		}
		cancel()
	}
}

// The replay allocates per run, not per request: the closed-loop token
// heap is sized once at QueueDepth, the open loop holds two requests.
// The guard is a small per-run budget (the Result and its counters);
// TestReplayAllocationIndependentOfLength pins the bytes.
func TestReplayLoopAllocatesPerRunNotPerRequest(t *testing.T) {
	const reqs = 4000
	for _, qd := range []int{0, 1, 32} {
		cfg := smallConfig(ftl.BaselineOptions())
		cfg.QueueDepth = qd
		spec := specFor(t, cfg, trace.Mail, reqs)
		snap, err := NewSnapshot(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := snap.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A fixed ring of read requests: the source allocates nothing
		// and reads leave the FTL's structures as they are, so what is
		// counted is the replay loop itself.
		ring := make([]trace.Request, 64)
		for i := range ring {
			ring[i] = trace.Request{Op: trace.OpRead, LPN: uint64(i * 17), Pages: 1}
		}
		src := &ringSource{ring: ring, gap: 50 * event.Microsecond}
		allocs := testing.AllocsPerRun(5, func() {
			src.left = reqs
			if _, err := r.Replay(src, snap.Offset(), "allocs"); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("qd %d: %.0f allocs per %d-request replay", qd, allocs, reqs)
		if allocs > 16 {
			t.Errorf("qd %d: %.0f allocs per %d-request replay, budget 16 — the loop allocates per request", qd, allocs, reqs)
		}
	}
}

// ringSource serves left requests cycled from a fixed ring, gap apart.
// It allocates nothing per request, so whatever a replay of it
// allocates is the replay's own.
type ringSource struct {
	ring []trace.Request
	gap  event.Time
	left int
	at   event.Time
}

func (s *ringSource) Next() (trace.Request, bool) {
	if s.left == 0 {
		return trace.Request{}, false
	}
	s.left--
	s.at += s.gap
	req := s.ring[s.left%len(s.ring)]
	req.At = s.at
	return req, true
}
