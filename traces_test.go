package cagc

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLogicalPagesFor(t *testing.T) {
	n, err := LogicalPagesFor(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("zero logical pages")
	}
	// Scales with the device.
	big := testParams()
	big.DeviceBytes = 64 << 20
	m, err := LogicalPagesFor(big)
	if err != nil {
		t.Fatal(err)
	}
	if m <= n {
		t.Fatalf("logical pages did not scale: %d vs %d", m, n)
	}
}

func TestWorkloadSpecSizedToDevice(t *testing.T) {
	spec, err := WorkloadSpec(Mail, testParams())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := LogicalPagesFor(testParams())
	if spec.LogicalPages != want {
		t.Fatalf("spec covers %d pages, device exports %d", spec.LogicalPages, want)
	}
	if spec.Name != "Mail" {
		t.Fatalf("spec name %q", spec.Name)
	}
	if _, err := WorkloadSpec("Nope", testParams()); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestTraceFileRoundTripAndReplay(t *testing.T) {
	p := testParams()
	p.Requests = 1500
	spec, err := WorkloadSpec(WebVM, p)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTraceGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	n, err := WriteTraceFile(path, gen)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1500 {
		t.Fatalf("wrote %d requests", n)
	}

	// The same file replays identically through a scheme.
	a, err := ReplayFile(path, WebVM, CAGC, "greedy", p, ReplayFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayFile(path, WebVM, CAGC, "greedy", p, ReplayFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != 1500 || a.FTL != b.FTL {
		t.Fatalf("replays diverged: %+v vs %+v", a.FTL, b.FTL)
	}
	// And through different schemes with the usual ordering on a
	// duplicate-bearing workload.
	base, err := ReplayFile(path, WebVM, Baseline, "greedy", p, ReplayFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.FTL.PagesMigrated >= base.FTL.PagesMigrated {
		t.Errorf("CAGC migrated %d >= baseline %d on the same trace",
			a.FTL.PagesMigrated, base.FTL.PagesMigrated)
	}
}

func TestReplayTraceFileErrors(t *testing.T) {
	p := testParams()
	if _, err := ReplayFile(filepath.Join(t.TempDir(), "missing"), Mail, CAGC, "greedy", p, ReplayFileOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(bad, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayFile(bad, Mail, CAGC, "greedy", p, ReplayFileOptions{}); err == nil {
		t.Fatal("garbage file accepted")
	}
	path := filepath.Join(t.TempDir(), "ok.trace")
	spec, _ := WorkloadSpec(Mail, p)
	gen, _ := NewTraceGenerator(spec)
	if _, err := WriteTraceFile(path, gen); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayFile(path, Mail, CAGC, "fifo", p, ReplayFileOptions{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestWriteTraceFileBadPath(t *testing.T) {
	spec, _ := WorkloadSpec(Mail, testParams())
	gen, _ := NewTraceGenerator(spec)
	if _, err := WriteTraceFile(filepath.Join(t.TempDir(), "nope", "deep", "t"), gen); err == nil {
		t.Fatal("uncreatable path accepted")
	}
}

func TestGzipTraceRoundTrip(t *testing.T) {
	p := testParams()
	p.Requests = 1200
	spec, err := WorkloadSpec(Mail, p)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := NewTraceGenerator(spec)
	plain := filepath.Join(t.TempDir(), "t.trace")
	if _, err := WriteTraceFile(plain, gen); err != nil {
		t.Fatal(err)
	}
	gen2, _ := NewTraceGenerator(spec)
	gzPath := filepath.Join(t.TempDir(), "t.trace.gz")
	if _, err := WriteTraceFile(gzPath, gen2); err != nil {
		t.Fatal(err)
	}
	// Compression actually compresses.
	ps, _ := os.Stat(plain)
	gs, _ := os.Stat(gzPath)
	if gs.Size() >= ps.Size() {
		t.Errorf("gzip trace not smaller: %d vs %d", gs.Size(), ps.Size())
	}
	// Both replay identically.
	a, err := ReplayFile(plain, Mail, CAGC, "greedy", p, ReplayFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayFile(gzPath, Mail, CAGC, "greedy", p, ReplayFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.FTL != b.FTL {
		t.Fatal("gzip replay diverged from plain replay")
	}
}
