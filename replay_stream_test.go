package cagc

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cagc/internal/trace"
)

// writeTestTrace generates a workload trace file and returns its path.
func writeTestTrace(t *testing.T, w Workload, p Params, name string) string {
	t.Helper()
	spec, err := WorkloadSpec(w, p)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTraceGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if _, err := WriteTraceFile(path, gen); err != nil {
		t.Fatal(err)
	}
	return path
}

func summaryJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The streaming contract end to end: the same trace produces
// byte-identical result documents from the in-memory path, the binary
// file, a text conversion and a gzip copy.
func TestReplayFileByteIdentity(t *testing.T) {
	p := testParams()
	p.Requests = 1500
	binPath := writeTestTrace(t, WebVM, p, "t.ctr")

	// In-memory reference: the same generated stream, no file.
	spec, err := WorkloadSpec(WebVM, p)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTraceGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReplayTrace(gen, WebVM, CAGC, "greedy", p)
	if err != nil {
		t.Fatal(err)
	}
	want := summaryJSON(t, ref)

	// Text and gzip conversions of the same requests.
	textPath := filepath.Join(t.TempDir(), "t.txt")
	if err := convertTrace(binPath, textPath, true); err != nil {
		t.Fatal(err)
	}
	gzPath := filepath.Join(t.TempDir(), "t.ctr.gz")
	if err := convertTrace(binPath, gzPath, false); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		path string
		o    ReplayFileOptions
	}{
		{"binary default", binPath, ReplayFileOptions{}},
		{"binary forced format", binPath, ReplayFileOptions{Format: "binary"}},
		{"text sniffed", textPath, ReplayFileOptions{}},
		{"text forced format", textPath, ReplayFileOptions{Format: "text"}},
		{"gzip sniffed", gzPath, ReplayFileOptions{}},
	}
	for _, c := range cases {
		var stats TraceStreamStats
		c.o.Stats = &stats
		res, err := ReplayFile(c.path, WebVM, CAGC, "greedy", p, c.o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := summaryJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("%s: result document diverged from in-memory replay\n got: %s\nwant: %s", c.name, got, want)
		}
		if stats.Requests != 1500 {
			t.Fatalf("%s: stats.Requests = %d", c.name, stats.Requests)
		}
	}
}

// convertTrace re-encodes a binary trace file (text or binary out,
// gzip by suffix) — the cagctrace convert path as a library round trip.
func convertTrace(in, out string, asText bool) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := trace.Open(f, trace.OpenOptions{})
	if err != nil {
		return err
	}
	if asText {
		o, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := trace.WriteText(o, src); err != nil {
			o.Close()
			return err
		}
		if err := trace.SourceErr(src); err != nil {
			o.Close()
			return err
		}
		return o.Close()
	}
	if _, err := WriteTraceFile(out, src); err != nil {
		return err
	}
	return trace.SourceErr(src)
}

// S1: a corrupt or truncated trace must fail the replay, never produce
// a result from a silently shortened stream.
func TestReplayFileCorruptFails(t *testing.T) {
	p := testParams()
	p.Requests = 800
	binPath := writeTestTrace(t, Mail, p, "t.ctr")

	// Truncate the binary container mid-record.
	data, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.ctr")
	if err := os.WriteFile(cut, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayFile(cut, Mail, CAGC, "greedy", p, ReplayFileOptions{}); err == nil {
		t.Fatal("truncated binary trace replayed without error")
	}

	// Corrupt a line in the middle of a text trace.
	textPath := filepath.Join(t.TempDir(), "t.txt")
	if err := convertTrace(binPath, textPath, true); err != nil {
		t.Fatal(err)
	}
	lines, err := os.ReadFile(textPath)
	if err != nil {
		t.Fatal(err)
	}
	split := strings.SplitAfter(string(lines), "\n")
	split[len(split)/2] = "XX corrupt line XX\n"
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte(strings.Join(split, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayFile(bad, Mail, CAGC, "greedy", p, ReplayFileOptions{}); err == nil {
		t.Fatal("corrupt text trace replayed without error")
	}
}

func TestParseTraceFormat(t *testing.T) {
	for in, want := range map[string]string{
		"": "auto", "auto": "auto", "bin": "binary", "cagc": "binary",
		"txt": "text", "FIU": "fiu",
	} {
		got, err := trace.ParseFormat(in)
		if err != nil || got.String() != want {
			t.Errorf("trace.ParseFormat(%q) = %q, %v", in, got, err)
		}
	}
	if _, err := (Job{Kind: KindReplay, ReplayPath: "nope", Replay: ReplayFileOptions{Format: "csv"}}).Resolve(); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := ReplayFile("nope", Mail, CAGC, "greedy", testParams(),
		ReplayFileOptions{Format: "csv"}); err == nil {
		t.Fatal("bad format reached the file open")
	}
}
