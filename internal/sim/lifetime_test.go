package sim_test

import (
	"bytes"
	"testing"

	"cagc"
	"cagc/internal/array"
	"cagc/internal/dedup"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// clobbered is the sentinel clobberSource writes over recycled
// fingerprints: one value for every page, so a consumer that reads
// stale fingerprints dedups them against each other and its document
// moves.
const clobbered = dedup.Fingerprint(0xc10bbe7ed)

// clobberSource enforces trace.Source's lifetime rule on its consumer:
// on every Next it first overwrites the fingerprints it returned last
// time, as a source recycling its buffer may.
type clobberSource struct {
	src  trace.Source
	last []dedup.Fingerprint
}

func (c *clobberSource) Next() (trace.Request, bool) {
	for i := range c.last {
		c.last[i] = clobbered
	}
	r, ok := c.src.Next()
	c.last = r.FPs
	return r, ok
}

func (c *clobberSource) Err() error { return trace.SourceErr(c.src) }

// lifetimeSources builds one leg's precondition fill and measured
// source; wrap is applied to every source a consumer reads.
type lifetimeSources func(t *testing.T, spec trace.Spec, wrap func(trace.Source) trace.Source) (pre, measured trace.Source, tenants []trace.TenantRange)

func generated(t *testing.T, spec trace.Spec) *trace.Generator {
	t.Helper()
	g, err := trace.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func preconditioner(t *testing.T, spec trace.Spec) *trace.Preconditioner {
	t.Helper()
	p, err := trace.NewPreconditioner(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Every consumer of a trace.Source — the open and closed replay loops,
// the precondition fill, the array replay, a scenario's Merge and the
// decode-ahead Stream — reads a request's fingerprints before it pulls
// the next request: with every source clobbering what it returned last,
// each document is byte-identical to an unwrapped run.
func TestSourceLifetimeContract(t *testing.T) {
	plain := func(t *testing.T, spec trace.Spec, wrap func(trace.Source) trace.Source) (trace.Source, trace.Source, []trace.TenantRange) {
		return wrap(preconditioner(t, spec)), wrap(generated(t, spec)), nil
	}
	streamed := func(t *testing.T, spec trace.Spec, wrap func(trace.Source) trace.Source) (trace.Source, trace.Source, []trace.TenantRange) {
		st := trace.NewStream(wrap(generated(t, spec)), trace.StreamOptions{})
		t.Cleanup(st.Close)
		return wrap(preconditioner(t, spec)), wrap(st), nil
	}
	merged := func(t *testing.T, spec trace.Spec, wrap func(trace.Source) trace.Source) (trace.Source, trace.Source, []trace.TenantRange) {
		share := spec.LogicalPages / 2
		mail, err := trace.Preset(trace.Mail, share, spec.Requests/2, 7)
		if err != nil {
			t.Fatal(err)
		}
		web, err := trace.Preset(trace.WebVM, share, spec.Requests/2, 8)
		if err != nil {
			t.Fatal(err)
		}
		m := trace.Merge(wrap(generated(t, mail)), wrap(&trace.Offset{Src: generated(t, web), Base: share}))
		st := trace.NewStream(wrap(m), trace.StreamOptions{})
		t.Cleanup(st.Close)
		tenants := []trace.TenantRange{{Name: "mail", Pages: share}, {Name: "web", Base: share, Pages: share}}
		return wrap(preconditioner(t, spec)), wrap(st), tenants
	}
	for _, leg := range []struct {
		name    string
		qd      int
		sources lifetimeSources
	}{
		{"open", 0, plain},
		{"closed-qd32", 32, plain},
		{"stream", 0, streamed},
		{"merge", 0, merged},
	} {
		for _, opts := range []ftl.Options{ftl.InlineDedupeOptions(), ftl.CAGCOptions()} {
			cfg := sim.Config{Device: flash.ScaledConfig(16 << 20), Options: opts, Utilization: 0.55, QueueDepth: leg.qd}
			spec, err := trace.Preset(trace.Mail, sim.LogicalPagesOf(cfg), 4000, 42)
			if err != nil {
				t.Fatal(err)
			}
			run := func(wrap func(trace.Source) trace.Source) []byte {
				r, err := sim.NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				pre, measured, tenants := leg.sources(t, spec, wrap)
				offset, err := r.Precondition(pre)
				if err != nil {
					t.Fatal(err)
				}
				r.SetTenants(tenants)
				res, err := r.Replay(measured, offset, spec.Name)
				if err != nil {
					t.Fatal(err)
				}
				return document(t, res)
			}
			want := run(func(s trace.Source) trace.Source { return s })
			if got := run(clobber); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: document moves when sources recycle fingerprints:\n%s\nvs\n%s", leg.name, opts.SchemeName(), got, want)
			}
		}
	}

	// The array replay, on a mirrored pair.
	run := func(wrap func(trace.Source) trace.Source) []byte {
		a, err := array.New(array.Config{
			Mode:          array.RAID1,
			Members:       2,
			MemberDevice:  flash.ScaledConfig(16 << 20),
			MemberOptions: ftl.CAGCOptions(),
			Utilization:   0.55,
		})
		if err != nil {
			t.Fatal(err)
		}
		spec, err := trace.Preset(trace.Mail, a.LogicalPages(), 4000, 42)
		if err != nil {
			t.Fatal(err)
		}
		offset, err := array.Precondition(a, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := array.Replay(a, wrap(generated(t, spec)), offset)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := cagc.WriteArrayJSON(&b, res); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if got, want := run(clobber), run(func(s trace.Source) trace.Source { return s }); !bytes.Equal(got, want) {
		t.Errorf("array: document moves when sources recycle fingerprints:\n%s\nvs\n%s", got, want)
	}
}

func clobber(s trace.Source) trace.Source { return &clobberSource{src: s} }
