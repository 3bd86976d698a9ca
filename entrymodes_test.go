package cagc

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"cagc/internal/sim"
)

// entryTrace writes the measured stream Run generates for p to a trace
// file, so a file replay of it measures exactly what Run measures.
func entryTrace(t *testing.T, p Params) string {
	t.Helper()
	spec, err := WorkloadSpec(Mail, p)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTraceGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mail.ctr")
	if _, err := WriteTraceFile(path, gen); err != nil {
		t.Fatal(err)
	}
	return path
}

func resultDoc(t *testing.T, res *Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteJSON(&b, res); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// Every entry mode builds its device from Params through buildRun. For
// each field (and the victim policy) that moves a plain run's document,
// the file replay of that run's own stream and a single-tenant scenario
// of the same workload must move it exactly as Run does (byte-equal
// documents, the scenario's label and tenant table aside), and an array
// job must move too — or the mode must refuse the field by name.
func TestEveryEntryModeHonoursParams(t *testing.T) {
	base := Params{Requests: 3000, Seed: 5}
	path := entryTrace(t, base)
	modes := []struct {
		name string
		run  func(policy string, p Params) (string, error)
	}{
		{"Run", func(policy string, p Params) (string, error) {
			res, err := Run(Mail, CAGC, policy, p)
			if err != nil {
				return "", err
			}
			return resultDoc(t, res), nil
		}},
		{"ReplayFile", func(policy string, p Params) (string, error) {
			res, err := ReplayFile(path, Mail, CAGC, policy, p, ReplayFileOptions{})
			if err != nil {
				return "", err
			}
			return resultDoc(t, res), nil
		}},
		{"RunScenario", func(policy string, p Params) (string, error) {
			res, err := RunScenario(CAGC, policy, p, ScenarioParams{Tenants: []TenantSpec{{Workload: Mail}}})
			if err != nil {
				return "", err
			}
			if len(res.Tenants) != 1 || res.Tenants[0].Requests != res.Requests {
				t.Fatalf("single tenant saw %+v of %d requests", res.Tenants, res.Requests)
			}
			res.Workload, res.Tenants = string(Mail), nil
			return resultDoc(t, res), nil
		}},
		{"array job", func(policy string, p Params) (string, error) {
			r, err := Job{Kind: KindArray, Policy: policy, Params: p,
				Array: &ArrayParams{Mode: "raid1", Stagger: true}}.Resolve()
			if err != nil {
				return "", err
			}
			out, err := r.Execute()
			if err != nil {
				return "", err
			}
			return string(out.Doc), nil
		}},
	}
	baseDocs := make([]string, len(modes))
	for i, m := range modes {
		doc, err := m.run("greedy", base)
		if err != nil {
			t.Fatalf("%s at the base Params: %v", m.name, err)
		}
		baseDocs[i] = doc
	}
	for i := 1; i < 3; i++ {
		if baseDocs[i] != baseDocs[0] {
			t.Fatalf("%s differs from Run at the base Params", modes[i].name)
		}
	}

	fields := []struct {
		name string
		set  func(*Params, *string)
	}{
		{"RefThreshold", func(p *Params, _ *string) { p.RefThreshold = 2 }},
		{"WearLevelThreshold", func(p *Params, _ *string) { p.WearLevelThreshold = 2 }},
		{"IndexCapacity", func(p *Params, _ *string) { p.IndexCapacity = 64 }},
		{"MappingCache", func(p *Params, _ *string) { p.MappingCache = 64 }},
		{"EraseLimit", func(p *Params, _ *string) { p.EraseLimit = 2 }},
		{"BufferPages", func(p *Params, _ *string) { p.BufferPages = 64 }},
		{"QueueDepth", func(p *Params, _ *string) { p.QueueDepth = 8 }},
		{"Policy", func(_ *Params, policy *string) { *policy = "random" }},
	}
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			p, policy := base, "greedy"
			f.set(&p, &policy)
			want, err := modes[0].run(policy, p)
			if err != nil {
				t.Fatal(err)
			}
			if want == baseDocs[0] {
				t.Fatalf("%s does not move Run's document; the check would be vacuous", f.name)
			}
			for i, m := range modes[1:] {
				got, err := m.run(policy, p)
				switch {
				case err != nil:
					if !strings.Contains(err.Error(), f.name) {
						t.Errorf("%s: error %q does not name %s", m.name, err, f.name)
					}
				case m.name == "array job":
					if got == baseDocs[i+1] {
						t.Errorf("%s ignores %s", m.name, f.name)
					}
				case got != want:
					t.Errorf("%s does not move with %s as Run does", m.name, f.name)
				}
			}
		})
	}
}

// The array layer never polls a context, so an array job refuses one by
// name, set before Resolve or after it, rather than drop its deadline.
func TestArrayRefusesCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := Job{Kind: KindArray, Params: Params{Requests: 500}, Array: &ArrayParams{}}
	r, err := j.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	r.Params.Ctx = ctx
	if _, err := r.Execute(); err == nil || !strings.Contains(err.Error(), "Ctx") {
		t.Errorf("array job under a cancelled context: %v, want an error naming Ctx", err)
	}
	j.Params.Ctx = ctx
	if _, err := j.Resolve(); err == nil || !strings.Contains(err.Error(), "Ctx") {
		t.Errorf("Resolve of an array job with a context: %v, want an error naming Ctx", err)
	}
}

// A file replay of Run's own measured stream renders Run's document
// byte for byte, for every scheme and at non-default Params. Two file
// replays in a row share one warm snapshot through the parked list:
// the second recycles the first's runner and the gauge stays balanced.
func TestReplayFileMatchesRunAtNonDefaultParams(t *testing.T) {
	p := Params{Requests: 2500, Seed: 9, RefThreshold: 2, WearLevelThreshold: 2,
		IndexCapacity: 64, MappingCache: 128, EraseLimit: 3, BufferPages: 32}
	path := entryTrace(t, p)
	for _, s := range Schemes {
		run, err := Run(Mail, s, "greedy", p)
		if err != nil {
			t.Fatal(err)
		}
		before := sim.CloneGaugeStats()
		var docs []string
		for i := 0; i < 2; i++ {
			res, err := ReplayFile(path, Mail, s, "greedy", p, ReplayFileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, resultDoc(t, res))
		}
		after := sim.CloneGaugeStats()
		if want := resultDoc(t, run); docs[0] != want || docs[1] != want {
			t.Fatalf("%v: file replay document differs from Run's:\n%s\nvs\n%s", s, docs[0], want)
		}
		if after.Live != before.Live {
			t.Errorf("%v: live clones %d -> %d across two file replays", s, before.Live, after.Live)
		}
		if after.Recycled == before.Recycled {
			t.Errorf("%v: the second file replay did not recycle the first's runner", s)
		}
	}
}
