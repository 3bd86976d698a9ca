package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cagc/internal/dedup"
	"cagc/internal/event"
)

func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// binaryTraceBytes encodes reqs in the binary container.
func binaryTraceBytes(t *testing.T, reqs []Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, &SliceSource{Reqs: reqs}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseFormat(t *testing.T) {
	cases := map[string]Format{
		"":       FormatAuto,
		"auto":   FormatAuto,
		"AUTO":   FormatAuto,
		"binary": FormatBinary,
		"bin":    FormatBinary,
		"cagc":   FormatBinary,
		"text":   FormatText,
		"txt":    FormatText,
		"fiu":    FormatFIU,
		" FIU ":  FormatFIU,
	}
	for in, want := range cases {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFormat("csv"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestFormatString(t *testing.T) {
	for f, want := range map[Format]string{
		FormatAuto: "auto", FormatBinary: "binary", FormatText: "text", FormatFIU: "fiu",
	} {
		if f.String() != want {
			t.Errorf("%v.String() = %q", uint8(f), f.String())
		}
	}
	if Format(99).String() == "" {
		t.Fatal("unknown format should still print")
	}
}

// Sniffing is on bytes, never names: the same payload must decode the
// same whether handed over plain or gzip-compressed.
func TestOpenSniffsEveryFormat(t *testing.T) {
	reqs := []Request{
		{At: 10, Op: OpWrite, LPN: 5, Pages: 1, FPs: fps(0xaa)},
		{At: 20, Op: OpRead, LPN: 6, Pages: 2},
		{At: 30, Op: OpTrim, LPN: 7, Pages: 1},
	}
	binData := binaryTraceBytes(t, reqs)
	var textBuf bytes.Buffer
	if _, err := WriteText(&textBuf, &SliceSource{Reqs: reqs}); err != nil {
		t.Fatal(err)
	}
	fiuData := []byte("# header comment\n" +
		"10 1 proc 5 1 W 6 0 00000000000000aa0000000000000000\n" +
		"20 1 proc 6 2 R 6 0\n")

	cases := []struct {
		name string
		data []byte
		n    int
	}{
		{"binary", binData, 3},
		{"text", textBuf.Bytes(), 3},
		{"fiu", fiuData, 2},
		{"binary.gz", gzipBytes(t, binData), 3},
		{"text.gz", gzipBytes(t, textBuf.Bytes()), 3},
		{"fiu.gz", gzipBytes(t, fiuData), 2},
	}
	for _, c := range cases {
		src, err := Open(bytes.NewReader(c.data), OpenOptions{})
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		got := Collect(src)
		if err := SourceErr(src); err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
			continue
		}
		if len(got) != c.n {
			t.Errorf("%s: decoded %d requests, want %d", c.name, len(got), c.n)
		}
	}
}

func fps(v uint64) []dedup.Fingerprint {
	return []dedup.Fingerprint{dedup.Fingerprint(v)}
}

// A forced format wins over the sniffer — and fails loudly on a
// mismatch instead of guessing.
func TestOpenFormatOverride(t *testing.T) {
	text := []byte("10 R 5 1\n")
	if _, err := Open(bytes.NewReader(text), OpenOptions{Format: FormatBinary}); err == nil {
		t.Fatal("text bytes accepted as binary")
	}
	src, err := Open(bytes.NewReader(text), OpenOptions{Format: FormatText})
	if err != nil {
		t.Fatal(err)
	}
	if got := Collect(src); len(got) != 1 || got[0].LPN != 5 {
		t.Fatalf("got %+v", got)
	}
}

func TestOpenRejectsUnrecognizable(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"comments only":  "# nothing here\n# at all\n",
		"unknown shape":  "one two\n",
		"nine-field mix": "a b c d e f g h i\n",
	}
	for name, in := range cases {
		if _, err := Open(strings.NewReader(in), OpenOptions{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Corrupt gzip header after valid magic bytes.
	if _, err := Open(bytes.NewReader([]byte{0x1f, 0x8b, 0xff}), OpenOptions{}); err == nil {
		t.Fatal("corrupt gzip accepted")
	}
}

func TestClassifyLine(t *testing.T) {
	cases := map[string]Format{
		"10 R 5 1":                          FormatText,
		"10 W 5 1 aa":                       FormatText,
		"10 T 5 8":                          FormatText,
		"100 42 mailsrv 7 1 W 6 0 abcd":     FormatFIU,
		"100 42 mailsrv 7 1 r 6 0":          FormatFIU,
		"just some words":                   FormatAuto,
		"1 2 3":                             FormatAuto,
		"100 42 mailsrv 7 1 X 6 0 extra":    FormatAuto,
		"10 R 5 1 extra trailing fields ok": FormatText,
	}
	for line, want := range cases {
		if got := classifyLine(line); got != want {
			t.Errorf("classifyLine(%q) = %v, want %v", line, got, want)
		}
	}
}

// The FIU time scale reaches the decoder through OpenOptions.
func TestOpenFIUTimeScale(t *testing.T) {
	in := "1000 1 p 5 1 R 0 0\n2000 1 p 6 1 R 0 0\n"
	src, err := Open(strings.NewReader(in), OpenOptions{TimeScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(src)
	if err := SourceErr(src); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].At != 0 || got[1].At != 500 {
		t.Fatalf("scaled arrivals: %+v", got)
	}
}

// OpenFile glues sniffing to the decode-ahead stream, with one closer
// for goroutine and file.
func TestOpenFileStreams(t *testing.T) {
	g, err := NewGenerator(streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(g)
	path := filepath.Join(t.TempDir(), "trace.bin.gz") // name lies; bytes rule
	if err := os.WriteFile(path, gzipBytes(t, binaryTraceBytes(t, want)), 0o644); err != nil {
		t.Fatal(err)
	}
	st, closer, err := OpenFile(path, OpenOptions{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := mustCollect(t, st)
	requestsEqual(t, got, want, "OpenFile")
	if err := closer(); err != nil {
		t.Fatal(err)
	}

	if _, _, err := OpenFile(filepath.Join(t.TempDir(), "missing"), OpenOptions{}, StreamOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// fuzzOpenMax bounds how many requests FuzzOpen drains per input.
const fuzzOpenMax = 4096

// referenceEncoding encodes reqs in the binary container field by
// field with binary.PutUvarint, independently of Writer.
func referenceEncoding(reqs []Request) []byte {
	out := append([]byte{}, magic[:]...)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { out = append(out, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	var last event.Time
	for _, r := range reqs {
		put(uint64(r.At - last))
		last = r.At
		out = append(out, byte(r.Op))
		put(r.LPN)
		put(uint64(r.Pages))
		if r.Op == OpWrite {
			for _, fp := range r.FPs {
				put(uint64(fp))
			}
		}
	}
	return out
}

// fuzzOpenSeeds are binary traces FuzzOpen starts from beyond its
// corpus: fingerprints whose uvarints take all 10 bytes, and one write
// long enough that its re-encoding crosses a 64 KiB write block.
func fuzzOpenSeeds() [][]byte {
	wide := make([]dedup.Fingerprint, 3)
	for i := range wide {
		wide[i] = dedup.Fingerprint(^uint64(0) - uint64(i))
	}
	long := make([]dedup.Fingerprint, writeBlock/10+64)
	for i := range long {
		long[i] = dedup.Fingerprint(1<<63 | uint64(i))
	}
	return [][]byte{
		referenceEncoding([]Request{
			{At: 1 << 40, Op: OpWrite, LPN: 1 << 63, Pages: 3, FPs: wide},
			{At: 1 << 40, Op: OpRead, LPN: 9, Pages: 1},
		}),
		referenceEncoding([]Request{
			{At: 5, Op: OpTrim, LPN: 2, Pages: 4},
			{At: 7, Op: OpWrite, LPN: 3, Pages: len(long), FPs: long},
			{At: 9, Op: OpWrite, LPN: 4, Pages: 1, FPs: wide[:1]},
		}),
	}
}

// FuzzOpen feeds arbitrary bytes through Open — gzip detection, format
// sniffing and whichever decoder they pick. No input may panic, and
// every request a decoder emits must pass Validate: malformed input
// must fail the stream (reported through SourceErr), never leak out as
// a request. The requests a binary input decodes to are encoded again
// with Writer, which must give the reference encoding and decode back
// to the same requests. The input bytes themselves are not compared:
// a non-canonical uvarint (0x80 0x00 for 0) decodes, and re-encodes
// shorter.
func FuzzOpen(f *testing.F) {
	for _, seed := range fuzzOpenSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := Open(bytes.NewReader(data), OpenOptions{})
		if err != nil {
			return
		}
		var reqs []Request
		for i := 0; i < fuzzOpenMax; i++ {
			r, ok := src.Next()
			if !ok {
				_ = SourceErr(src) // a decode error is a fine answer
				break
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("request %d: %v (%+v)", i, err, r)
			}
			r.FPs = slices.Clone(r.FPs)
			reqs = append(reqs, r)
		}
		if _, isBinary := src.(*Reader); !isBinary {
			return
		}
		got := binaryTraceBytes(t, reqs)
		if want := referenceEncoding(reqs); !bytes.Equal(got, want) {
			t.Fatalf("Writer encoded %d requests to %d bytes, the reference to %d", len(reqs), len(got), len(want))
		}
		back, err := decodeAll(t, got)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if len(reqs) > 0 {
			requestsEqual(t, back, reqs, "re-encoded")
		} else if len(back) != 0 {
			t.Fatalf("re-encoding of no requests decodes to %d", len(back))
		}
	})
}
