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
		{Params{}, FleetParams{Devices: 5, ShardSize: 2, Workers: 3}},
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
