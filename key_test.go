package cagc

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// Defaults and explicit default values must key identically, and every
// output-affecting field must move the key.
func TestConfigKeyCanonical(t *testing.T) {
	base := ConfigKey(Mail, CAGC, "", Params{})
	if len(base) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(base))
	}
	explicit := ConfigKey(Mail, CAGC, "greedy", Params{
		DeviceBytes: 16 << 20, Requests: 20000, Seed: 1,
		Utilization: 0.55, RefThreshold: 1,
	})
	if explicit != base {
		t.Fatal("explicit defaults key differently from zero values")
	}

	// Wall-clock/observational knobs are excluded from identity.
	same := []Params{
		{ColdStart: true},
		{Trace: NewTraceRecorder()},
		{Ctx: context.Background()},
	}
	for _, p := range same {
		if got := ConfigKey(Mail, CAGC, "greedy", p); got != base {
			t.Fatalf("non-output field moved the key (params %+v)", p)
		}
	}

	// A policy alias keys as its canonical name.
	cb := ConfigKey(Mail, CAGC, "cost-benefit", Params{})
	for _, alias := range []string{"costbenefit", "cb"} {
		if ConfigKey(Mail, CAGC, alias, Params{}) != cb {
			t.Errorf("policy %q keys apart from cost-benefit", alias)
		}
		r, err := Job{Policy: alias}.Resolve()
		if err != nil || r.Key != cb || r.Policy != "cost-benefit" {
			t.Errorf("Job{Policy: %q}.Resolve() = %v, %v", alias, r, err)
		}
	}

	// A knob the scheme's composition never reads keys as its default:
	// Baseline neither hashes nor places, Inline-Dedupe never places.
	for _, tc := range []struct {
		s Scheme
		p Params
	}{
		{Baseline, Params{IndexCapacity: 16}},
		{Baseline, Params{RefThreshold: 3}},
		{InlineDedupe, Params{RefThreshold: 3}},
	} {
		if ConfigKey(Mail, tc.s, "", tc.p) != ConfigKey(Mail, tc.s, "", Params{}) {
			t.Errorf("%v with %+v keys apart from its default", tc.s, tc.p)
		}
	}

	// Output-affecting fields each change it.
	diff := map[string]string{
		"workload":  ConfigKey(Homes, CAGC, "", Params{}),
		"scheme":    ConfigKey(Mail, Baseline, "", Params{}),
		"policy":    ConfigKey(Mail, CAGC, "cost-benefit", Params{}),
		"device":    ConfigKey(Mail, CAGC, "", Params{DeviceBytes: 32 << 20}),
		"requests":  ConfigKey(Mail, CAGC, "", Params{Requests: 5000}),
		"seed":      ConfigKey(Mail, CAGC, "", Params{Seed: 7}),
		"util":      ConfigKey(Mail, CAGC, "", Params{Utilization: 0.6}),
		"threshold": ConfigKey(Mail, CAGC, "", Params{RefThreshold: 2}),
		"buffer":    ConfigKey(Mail, CAGC, "", Params{BufferPages: 8}),
		"wearlevel": ConfigKey(Mail, CAGC, "", Params{WearLevelThreshold: 16}),
		"indexcap":  ConfigKey(Mail, CAGC, "", Params{IndexCapacity: 100}),
		"qd":        ConfigKey(Mail, CAGC, "", Params{QueueDepth: 8}),
		"mapcache":  ConfigKey(Mail, CAGC, "", Params{MappingCache: 64}),
		"eraselim":  ConfigKey(Mail, CAGC, "", Params{EraseLimit: 50}),
	}
	seen := map[string]string{base: "base"}
	for field, key := range diff {
		if prev, dup := seen[key]; dup {
			t.Fatalf("field %s keys identically to %s", field, prev)
		}
		seen[key] = field
	}
}

// The knobs a composition never reads are outside its identity in every
// sense: the run renders its default's document, and it shares its
// default's warm state.
func TestUnreadKnobsShareIdentity(t *testing.T) {
	base := Params{Requests: 2000}.withDefaults()
	for _, tc := range []struct {
		s Scheme
		p Params
	}{
		{Baseline, Params{Requests: 2000, IndexCapacity: 16}},
		{Baseline, Params{Requests: 2000, RefThreshold: 3}},
		{InlineDedupe, Params{Requests: 2000, RefThreshold: 3}},
	} {
		p := tc.p.withDefaults()
		warm := func(p Params) string {
			cfg, spec, err := buildRun(Mail, tc.s.Options(), "greedy", p)
			if err != nil {
				t.Fatal(err)
			}
			return warmKey(cfg, spec, p.Seed)
		}
		if warm(p) != warm(base) {
			t.Errorf("%v with %+v builds its own warm state", tc.s, tc.p)
		}
		run := func(p Params) string {
			res, err := Run(Mail, tc.s, "greedy", p)
			if err != nil {
				t.Fatal(err)
			}
			return resultDoc(t, res)
		}
		if run(p) != run(base) {
			t.Errorf("%v with %+v renders a different document", tc.s, tc.p)
		}
	}
	// The bounds hold whether or not the composition reads the knob.
	if _, err := Run(Mail, Baseline, "greedy", Params{RefThreshold: -2}); err == nil ||
		err.Error() != "Params.RefThreshold -2: cannot be negative" {
		t.Errorf("Baseline with RefThreshold -2: %v", err)
	}
}

// The key preimage names every field it covers, so identity drift is
// reviewable.
func TestConfigKeyMaterialFields(t *testing.T) {
	m := configKeyMaterial(Mail, CAGC, "", Params{})
	for _, want := range []string{
		configKeyVersion, "workload=Mail", "scheme=CAGC", "policy=greedy",
		"device_bytes=16777216", "requests=20000", "seed=1", "util=0.55",
		"ref_threshold=1", "buffer_pages=0", "wear_level=0", "index_capacity=0",
		"queue_depth=0", "mapping_cache=0", "erase_limit=0",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("key material %q missing %q", m, want)
		}
	}
}

// A fleet keys on the configuration fleet.Run normalises it to: specs
// that run the same fleet share one key whatever their scheduling or
// spelled-out defaults, and a field that changes the fleet moves it.
func TestFleetKeyFollowsNormalisation(t *testing.T) {
	key := func(p Params, fp FleetParams) string {
		t.Helper()
		r, err := Job{Kind: KindFleet, Params: p, Fleet: &fp}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return r.Key
	}
	base := key(Params{}, FleetParams{Devices: 5})
	for _, tc := range []struct {
		p  Params
		fp FleetParams
	}{
		{Params{Requests: 2000, Seed: 1}, FleetParams{Devices: 5, FleetSeed: 1}},
		{Params{}, FleetParams{Devices: 5, TopK: 5}},           // the default 10, clamped to Devices
		{Params{}, FleetParams{Devices: 5, TopK: 50}},          // clamped to Devices
		{Params{}, FleetParams{Devices: 5, UtilClasses: 3}},    // no spread, one class
		{Params{}, FleetParams{Devices: 5, StaggerClasses: 1}}, // the default
		{Params{}, FleetParams{Devices: 5, Workers: 3}},
	} {
		if got := key(tc.p, tc.fp); got != base {
			t.Errorf("%+v %+v keys apart from the fleet it runs", tc.p, tc.fp)
		}
	}
	for _, fp := range []FleetParams{
		{Devices: 6},
		{Devices: 5, TopK: 4},
		{Devices: 5, StaggerClasses: 2},
		{Devices: 5, FleetSeed: 2},
		{Devices: 5, UtilSpread: 0.1},
		{Devices: 5, Diurnal: 0.2},
	} {
		if key(Params{}, fp) == base {
			t.Errorf("%+v keys like the base fleet", fp)
		}
	}
}

// WriteJSONKey stamps the key as the document's first field and changes
// nothing else; WriteJSON output stays byte-identical to before the key
// existed (the empty key is omitted).
func TestWriteJSONKey(t *testing.T) {
	res, err := Run(Mail, CAGC, "greedy", Params{Requests: 2000, DeviceBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var plain, keyed bytes.Buffer
	if err := WriteJSON(&plain, res); err != nil {
		t.Fatal(err)
	}
	key := ConfigKey(Mail, CAGC, "greedy", Params{Requests: 2000, DeviceBytes: 16 << 20})
	if err := WriteJSONKey(&keyed, res, key); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "config_key") {
		t.Fatal("WriteJSON output contains config_key without a key")
	}
	if !strings.Contains(keyed.String(), `"config_key": "`+key+`"`) {
		t.Fatal("WriteJSONKey output missing the key")
	}
	// Stripping the key line recovers the plain document exactly.
	stripped := strings.Replace(keyed.String(), "  \"config_key\": \""+key+"\",\n", "", 1)
	if stripped != plain.String() {
		t.Fatal("keyed document differs from plain beyond the key line")
	}
}
