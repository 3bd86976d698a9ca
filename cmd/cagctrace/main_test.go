package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func runOK(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String(), errb.String()
}

// The full pipeline the CI smoke exercises: gen → convert (text, gz) →
// stats, with every leg decoding to the same request count.
func TestGenConvertStatsPipeline(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "mail.ctr")
	_, genErr := runOK(t, "gen", "-workload", "Mail", "-requests", "2000",
		"-device", "16777216", "-o", bin)
	if !strings.Contains(genErr, "generated 2000 Mail requests") {
		t.Fatalf("gen report: %q", genErr)
	}

	text := filepath.Join(dir, "mail.txt")
	_, convErr := runOK(t, "convert", "-i", bin, "-text", "-o", text)
	if !strings.Contains(convErr, "converted 2000 requests") {
		t.Fatalf("convert report: %q", convErr)
	}

	gz := filepath.Join(dir, "mail.ctr.gz")
	runOK(t, "convert", "-i", text, "-o", gz)
	bi, err := os.Stat(bin)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := os.Stat(gz)
	if err != nil {
		t.Fatal(err)
	}
	if gi.Size() >= bi.Size() {
		t.Errorf("gzip output not smaller: %d vs %d", gi.Size(), bi.Size())
	}

	// The gz round trip decodes back to identical bytes as a re-encode
	// of the original binary.
	roundA := filepath.Join(dir, "a.ctr")
	roundB := filepath.Join(dir, "b.ctr")
	runOK(t, "convert", "-i", bin, "-o", roundA)
	runOK(t, "convert", "-i", gz, "-o", roundB)
	a, _ := os.ReadFile(roundA)
	b, _ := os.ReadFile(roundB)
	if !bytes.Equal(a, b) {
		t.Fatal("binary→gz→binary round trip not byte-identical")
	}

	for _, in := range []string{bin, text, gz} {
		stats, _ := runOK(t, "stats", "-i", in)
		if !strings.Contains(stats, "reqs=2000") {
			t.Errorf("stats(%s) missing request count:\n%s", in, stats)
		}
		if !strings.Contains(stats, "invalidations by refcount") {
			t.Errorf("stats(%s) missing refcount analysis:\n%s", in, stats)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("?? ??\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "trunc.ctr")
	bin := filepath.Join(dir, "ok.ctr")
	runOK(t, "gen", "-requests", "500", "-o", bin)
	data, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	cases := [][]string{
		{},
		{"frobnicate"},
		{"gen", "-workload", "nope"},
		{"gen", "-requests", "10", "-o", filepath.Join(dir, "no", "such", "dir", "x")},
		{"convert"},
		{"convert", "-i", filepath.Join(dir, "missing")},
		{"convert", "-i", garbage},
		{"convert", "-i", truncated, "-o", filepath.Join(dir, "out.ctr")},
		{"convert", "-i", bin, "-format", "csv"},
		{"stats"},
		{"stats", "-i", filepath.Join(dir, "missing")},
		{"stats", "-i", truncated},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%v): no error", args)
		}
	}
}

// runMainEnv makes the test binary run main instead of the tests, so a
// test can check what the command exits with.
const runMainEnv = "CAGCTRACE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A write the device refuses fails the command: gen into /dev/full
// exits 1 and names the error, rather than leaving a short file behind
// a clean exit.
func TestGenToFullDeviceExits1(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	cmd := exec.Command(os.Args[0], "gen", "-requests", "20000", "-o", "/dev/full")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("gen -o /dev/full: %v, want exit status 1 (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no space left on device") {
		t.Fatalf("stderr %q does not name the error", stderr.String())
	}
}

// gen and convert that fail mid-stream return only after every
// goroutine they started has exited: the decode-ahead producer behind
// convert is released on every error path.
func TestFailedRunsLeaveNoStreamBehind(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "homes.ctr")
	runOK(t, "gen", "-workload", "Homes", "-requests", "30000", "-o", bin)
	data, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "trunc.ctr")
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"convert", "-i", truncated, "-o", filepath.Join(dir, "out.ctr")},
		{"convert", "-i", truncated, "-text", "-o", filepath.Join(dir, "out.txt")},
		{"stats", "-i", truncated},
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		cases = append(cases,
			[]string{"gen", "-requests", "30000", "-o", "/dev/full"},
			[]string{"gen", "-requests", "30000", "-text", "-o", "/dev/full"},
			[]string{"convert", "-i", bin, "-o", "/dev/full"},
			[]string{"convert", "-i", bin, "-text", "-o", "/dev/full"},
		)
	}
	before := runtime.NumGoroutine()
	for _, args := range cases {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Fatalf("run(%v): no error", args)
		}
		// A goroutine that has closed its last channel may not have
		// returned yet; give it a bounded moment to.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("run(%v) left %d goroutines behind", args, n-before)
		}
	}
}
