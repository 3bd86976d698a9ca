package cagc

import (
	"bytes"
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
// each field that moves a plain run's document, the file replay of
// that run's own stream and a single-tenant scenario of the same
// workload must move it exactly as Run does (byte-equal documents, the
// scenario's label and tenant table aside), and an array run must
// move too — or the mode must refuse the field by name.
func TestEveryEntryModeHonoursParams(t *testing.T) {
	base := Params{Requests: 3000, Seed: 5}
	path := entryTrace(t, base)
	modes := []struct {
		name string
		run  func(Params) (string, error)
	}{
		{"Run", func(p Params) (string, error) {
			res, err := Run(Mail, CAGC, "greedy", p)
			if err != nil {
				return "", err
			}
			return resultDoc(t, res), nil
		}},
		{"ReplayFile", func(p Params) (string, error) {
			res, err := ReplayFile(path, Mail, CAGC, "greedy", p, ReplayFileOptions{})
			if err != nil {
				return "", err
			}
			return resultDoc(t, res), nil
		}},
		{"RunScenario", func(p Params) (string, error) {
			res, err := RunScenario(CAGC, "greedy", p, ScenarioParams{Tenants: []TenantSpec{{Workload: Mail}}})
			if err != nil {
				return "", err
			}
			if len(res.Tenants) != 1 || res.Tenants[0].Requests != res.Requests {
				t.Fatalf("single tenant saw %+v of %d requests", res.Tenants, res.Requests)
			}
			res.Workload, res.Tenants = string(Mail), nil
			return resultDoc(t, res), nil
		}},
		{"RunArray", func(p Params) (string, error) {
			res, err := RunArray(Mail, CAGC, p, ArrayParams{Mode: "raid1", Stagger: true})
			if err != nil {
				return "", err
			}
			var b bytes.Buffer
			if err := WriteArrayJSON(&b, res); err != nil {
				t.Fatal(err)
			}
			return b.String(), nil
		}},
	}
	baseDocs := make([]string, len(modes))
	for i, m := range modes {
		doc, err := m.run(base)
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
		set  func(*Params)
	}{
		{"RefThreshold", func(p *Params) { p.RefThreshold = 2 }},
		{"WearLevelThreshold", func(p *Params) { p.WearLevelThreshold = 2 }},
		{"IndexCapacity", func(p *Params) { p.IndexCapacity = 64 }},
		{"MappingCache", func(p *Params) { p.MappingCache = 64 }},
		{"EraseLimit", func(p *Params) { p.EraseLimit = 2 }},
		{"BufferPages", func(p *Params) { p.BufferPages = 64 }},
		{"QueueDepth", func(p *Params) { p.QueueDepth = 8 }},
	}
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			p := base
			f.set(&p)
			want, err := modes[0].run(p)
			if err != nil {
				t.Fatal(err)
			}
			if want == baseDocs[0] {
				t.Fatalf("%s does not move Run's document; the check would be vacuous", f.name)
			}
			for i, m := range modes[1:] {
				got, err := m.run(p)
				switch {
				case err != nil:
					if !strings.Contains(err.Error(), f.name) {
						t.Errorf("%s: error %q does not name %s", m.name, err, f.name)
					}
				case m.name == "RunArray":
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

// A file replay of Run's own measured stream renders Run's document
// byte for byte, for every scheme and at non-default Params. Two file
// replays in a row share one warm snapshot through the clone free-list:
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
