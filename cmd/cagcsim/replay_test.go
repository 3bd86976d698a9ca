package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"cagc"
)

// genTrace writes a small binary trace sized to the 16 MiB test device.
func genTrace(t *testing.T, requests int) string {
	t.Helper()
	p := cagc.Params{DeviceBytes: 16 << 20, Requests: requests, Seed: 1}
	spec, err := cagc.WorkloadSpec(cagc.Mail, p)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := cagc.NewTraceGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.ctr")
	if _, err := cagc.WriteTraceFile(path, gen); err != nil {
		t.Fatal(err)
	}
	return path
}

// -replay documents are byte-identical across chunk sizes and decode
// modes; ingest telemetry goes to stderr only.
func TestReplayFlagByteIdentity(t *testing.T) {
	path := genTrace(t, 1200)
	base := []string{"-device", "16777216", "-requests", "1200", "-replay", path, "-json"}
	variants := [][]string{
		base,
		append(append([]string{}, base...), "-chunk", "1"),
		append(append([]string{}, base...), "-chunk", "4096"),
		append(append([]string{}, base...), "-sync-decode"),
		append(append([]string{}, base...), "-replay-format", "binary"),
	}
	var want string
	for i, args := range variants {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if !strings.Contains(stderr.String(), "cagcsim: ingest:") {
			t.Fatalf("variant %d: no ingest report on stderr:\n%s", i, stderr.String())
		}
		if strings.Contains(stdout.String(), "ingest") {
			t.Fatalf("variant %d: ingest counters leaked into stdout", i)
		}
		if i == 0 {
			want = stdout.String()
			if strings.Contains(want, `"config_key"`) {
				t.Fatal("file replay document should omit the config key")
			}
			continue
		}
		if stdout.String() != want {
			t.Fatalf("variant %d diverged:\n%s\nvs\n%s", i, stdout.String(), want)
		}
	}
}

// The scenario mode is deterministic and reports per-tenant figures in
// both renderings.
func TestTenantsFlag(t *testing.T) {
	args := []string{"-device", "16777216", "-requests", "1500",
		"-tenants", "Homes,Web-vm,Mail*2", "-diurnal-period-ms", "5",
		"-diurnal-amp", "0.6", "-slo-us", "300", "-json"}
	var a, b, stderr bytes.Buffer
	if err := run(args, &a, &stderr); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b, &stderr); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("scenario -json reruns diverged")
	}
	for _, want := range []string{`"tenants"`, `"Homes"`, `"Web-vm"`, `"Mail"`, `"slo_violations"`} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("scenario JSON missing %s:\n%s", want, a.String())
		}
	}

	var text bytes.Buffer
	if err := run(args[:len(args)-1], &text, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "tenant Homes") || !strings.Contains(text.String(), "SLO") {
		t.Fatalf("text report missing tenant lines:\n%s", text.String())
	}
}

func TestReplayFlagValidation(t *testing.T) {
	path := genTrace(t, 100)
	cases := [][]string{
		{"-replay", path, "-replay-format", "csv"},
		{"-replay", path, "-chunk", "-1"},
		{"-replay", path, "-tenants", "Homes"},
		{"-replay", path, "-batch", "2"},
		{"-tenants", "Homes,,Mail"},
		{"-tenants", "Mail*0"},
		{"-tenants", "Mail*x"},
		{"-tenants", "Homes", "-diurnal-amp", "1.0"},
		{"-tenants", "Homes", "-diurnal-amp", "-0.1"},
		{"-replay", filepath.Join(t.TempDir(), "missing")},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("args %v: no error", args)
		}
	}
}

func TestParseTenants(t *testing.T) {
	specs, err := parseTenants("Homes,Web-vm*2,mail", "auto", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("specs: %+v", specs)
	}
	if specs[0].Workload != cagc.Homes || specs[0].Rate != 0 {
		t.Fatalf("specs[0]: %+v", specs[0])
	}
	if specs[1].Workload != cagc.WebVM || specs[1].Rate != 2 {
		t.Fatalf("specs[1]: %+v", specs[1])
	}
	if specs[2].Workload != cagc.Mail {
		t.Fatalf("specs[2]: %+v", specs[2])
	}

	// Non-workload entries become file tenants inheriting format/scale.
	specs, err = parseTenants("/tmp/homes.ctr*0.5", "fiu", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Path != "/tmp/homes.ctr" || specs[0].Rate != 0.5 ||
		specs[0].Format != "fiu" || specs[0].TimeScale != 0.25 {
		t.Fatalf("file tenant: %+v", specs[0])
	}

	if got, err := parseTenants("", "auto", 0); err != nil || got != nil {
		t.Fatalf("empty arg: %v, %v", got, err)
	}
}

// A nonexistent file tenant must fail the scenario run cleanly.
func TestTenantsFileMissing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-device", "16777216", "-requests", "200",
		"-tenants", "Homes," + filepath.Join(t.TempDir(), "gone.ctr")}, &stdout, &stderr)
	if err == nil {
		t.Fatal("missing tenant trace accepted")
	}
}
