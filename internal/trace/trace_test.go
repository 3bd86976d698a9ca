package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cagc/internal/dedup"
	"cagc/internal/event"
)

func testSpec() Spec {
	return Spec{
		Name:             "test",
		WriteRatio:       0.7,
		DedupRatio:       0.5,
		AvgReqPages:      4,
		LogicalPages:     10000,
		Requests:         5000,
		MeanInterArrival: 50 * event.Microsecond,
		TrimFraction:     0.02,
		TrimPages:        8,
		ContentSkew:      1.4,
		AddrSkew:         1.2,
		ContentPool:      512,
		Seed:             1,
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{Op: OpWrite, Pages: 2, FPs: []dedup.Fingerprint{1, 2}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good request rejected: %v", err)
	}
	cases := []Request{
		{Op: OpRead, Pages: 0},
		{Op: OpWrite, Pages: 2, FPs: []dedup.Fingerprint{1}},
		{Op: OpRead, Pages: 1, FPs: []dedup.Fingerprint{1}},
		{Op: OpTrim, Pages: 1, FPs: []dedup.Fingerprint{1}},
		{Op: OpRead, Pages: 1, At: -1},
	}
	for i, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid request accepted: %+v", i, r)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "R" || OpWrite.String() != "W" || OpTrim.String() != "T" {
		t.Fatal("op strings wrong")
	}
	if Op(7).String() == "" {
		t.Fatal("unknown op should print")
	}
}

func TestSliceSource(t *testing.T) {
	s := &SliceSource{Reqs: []Request{{LPN: 1, Pages: 1}, {LPN: 2, Pages: 1}}}
	got := Collect(s)
	if len(got) != 2 || got[0].LPN != 1 || got[1].LPN != 2 {
		t.Fatalf("collect = %+v", got)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted source yielded")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r.LPN != 1 {
		t.Fatal("reset broken")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	mutations := []func(*Spec){
		func(s *Spec) { s.WriteRatio = 1.2 },
		func(s *Spec) { s.DedupRatio = -0.1 },
		func(s *Spec) { s.AvgReqPages = 0.5 },
		func(s *Spec) { s.LogicalPages = 0 },
		func(s *Spec) { s.Requests = -1 },
		func(s *Spec) { s.MeanInterArrival = -1 },
		func(s *Spec) { s.TrimFraction = 1 },
		func(s *Spec) { s.ContentSkew = 1 },
		func(s *Spec) { s.AddrSkew = 0.9 },
		func(s *Spec) { s.ContentPool = 0 },
	}
	for i, m := range mutations {
		s := testSpec()
		m(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := NewGenerator(s); err == nil {
			t.Errorf("mutation %d: NewGenerator accepted bad spec", i)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1, err := NewGenerator(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(testSpec())
	for i := 0; i < 1000; i++ {
		a, okA := g1.Next()
		b, okB := g2.Next()
		if okA != okB || a.At != b.At || a.LPN != b.LPN || a.Op != b.Op || a.Pages != b.Pages {
			t.Fatalf("divergence at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestGeneratorProducesExactlyN(t *testing.T) {
	s := testSpec()
	s.Requests = 123
	g, _ := NewGenerator(s)
	if got := len(Collect(g)); got != 123 {
		t.Fatalf("produced %d, want 123", got)
	}
}

// Every request is well-formed and fits the address space — including
// logical spaces smaller than the longest request the length
// distribution can draw (1024 pages), where an unclamped length once
// wrapped LogicalPages - pages around to an LPN near 2^64.
func TestGeneratorRequestsValid(t *testing.T) {
	specs := []Spec{testSpec()}
	for _, logical := range []uint64{1, 8, 1023} {
		s, err := Preset(WebVM, logical, 20_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		long := s
		long.Name, long.AvgReqPages, long.TrimPages, long.Requests = "long", 600, 600, 2_000
		specs = append(specs, s, long)
	}
	for _, spec := range specs {
		g, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		logical := spec.LogicalPages
		last := event.Time(-1)
		for r, ok := g.Next(); ok; r, ok = g.Next() {
			if err := r.Validate(); err != nil {
				t.Fatalf("%s/%d: generated invalid request: %v (%+v)", spec.Name, logical, err, r)
			}
			if r.At < last {
				t.Fatalf("%s/%d: arrivals went backwards: %v after %v", spec.Name, logical, r.At, last)
			}
			last = r.At
			if r.LPN >= logical || uint64(r.Pages) > logical-r.LPN {
				t.Fatalf("%s/%d: request overruns address space: %+v", spec.Name, logical, r)
			}
		}
	}
}

func TestGeneratorMatchesSpecStatistics(t *testing.T) {
	s := testSpec()
	s.Requests = 40000
	g, _ := NewGenerator(s)
	c := Characterize(g, 4096)
	if math.Abs(c.WriteRatio-s.WriteRatio) > 0.03 {
		t.Errorf("write ratio = %.3f, want ≈%.3f", c.WriteRatio, s.WriteRatio)
	}
	// Measured dedup ratio runs slightly below the duplicate-draw
	// probability because first draws of each pooled content are unique.
	if math.Abs(c.DedupRatio-s.DedupRatio) > 0.06 {
		t.Errorf("dedup ratio = %.3f, want ≈%.3f", c.DedupRatio, s.DedupRatio)
	}
	wantKB := s.AvgReqPages * 4
	if math.Abs(c.AvgReqKB-wantKB) > wantKB*0.1 {
		t.Errorf("avg req = %.1fKB, want ≈%.1fKB", c.AvgReqKB, wantKB)
	}
	if c.Trims == 0 {
		t.Error("no trims generated")
	}
}

func TestPresetsMatchTableII(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(string(w), func(t *testing.T) {
			spec, err := Preset(w, 50000, 60000, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("preset spec invalid: %v", err)
			}
			g, err := NewGenerator(spec)
			if err != nil {
				t.Fatal(err)
			}
			c := Characterize(g, 4096)
			wr, dr, kb, err := TableII(w)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(c.WriteRatio-wr) > 0.03 {
				t.Errorf("write ratio = %.3f, want %.3f", c.WriteRatio, wr)
			}
			if math.Abs(c.DedupRatio-dr) > 0.08 {
				t.Errorf("dedup ratio = %.3f, want %.3f", c.DedupRatio, dr)
			}
			if math.Abs(c.AvgReqKB-kb) > kb*0.15 {
				t.Errorf("avg req = %.1fKB, want %.1fKB", c.AvgReqKB, kb)
			}
		})
	}
}

func TestPresetUnknownWorkload(t *testing.T) {
	if _, err := Preset("nope", 1000, 10, 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, _, _, err := TableII("nope"); err == nil {
		t.Fatal("unknown TableII accepted")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names unsorted: %v", names)
		}
	}
}

func TestCharacterizeString(t *testing.T) {
	var c Characteristics
	if c.String() == "" {
		t.Fatal("empty characterization string")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	s := testSpec()
	s.Requests = 2000
	g, _ := NewGenerator(s)
	orig := Collect(g)

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range orig {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(orig) {
		t.Fatalf("writer count = %d, want %d", w.Count(), len(orig))
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip: %d requests, want %d", len(got), len(orig))
	}
	for i := range got {
		a, b := orig[i], got[i]
		if a.At != b.At || a.Op != b.Op || a.LPN != b.LPN || a.Pages != b.Pages || len(a.FPs) != len(b.FPs) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.FPs {
			if a.FPs[j] != b.FPs[j] {
				t.Fatalf("record %d fp %d mismatch", i, j)
			}
		}
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTATRACEFILE###")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := NewReader(strings.NewReader("x")); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestBinaryRejectsBackwardsTime(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Write(Request{At: 100, Op: OpRead, Pages: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Request{At: 50, Op: OpRead, Pages: 1}); err == nil {
		t.Fatal("backwards arrival accepted")
	}
}

func TestBinaryTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Request{At: 1, Op: OpWrite, Pages: 2, FPs: []dedup.Fingerprint{9, 9}})
	w.Flush()
	full := buf.Bytes()
	// Chop mid-record (keep header + 3 bytes).
	r, err := NewReader(bytes.NewReader(full[:len(magic)+3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("truncated record decoded")
	}
	if r.Err() == nil {
		t.Fatal("truncation not reported")
	}
}

func TestTextRoundTrip(t *testing.T) {
	s := testSpec()
	s.Requests = 500
	g, _ := NewGenerator(s)
	orig := Collect(g)

	var buf bytes.Buffer
	n, err := WriteText(&buf, &SliceSource{Reqs: orig})
	if err != nil || n != len(orig) {
		t.Fatalf("WriteText: n=%d err=%v", n, err)
	}
	tr := NewTextReader(&buf)
	got := Collect(tr)
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip: %d, want %d", len(got), len(orig))
	}
	for i := range got {
		if got[i].At != orig[i].At || got[i].LPN != orig[i].LPN || got[i].Op != orig[i].Op {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestTextReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n10 R 5 1\n"
	tr := NewTextReader(strings.NewReader(in))
	got := Collect(tr)
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	if len(got) != 1 || got[0].LPN != 5 {
		t.Fatalf("got %+v", got)
	}
}

func TestTextReaderErrors(t *testing.T) {
	bad := []string{
		"10 R 5",         // too few fields
		"x R 5 1",        // bad time
		"10 Q 5 1",       // bad op
		"10 R x 1",       // bad lpn
		"10 R 5 0",       // bad pages
		"10 W 5 2 aa",    // fp count mismatch
		"10 W 5 1 zz",    // bad hex
		"10 W 5 1",       // write without fps
		"10 W 5 1 aa,bb", // too many fps
	}
	for _, line := range bad {
		tr := NewTextReader(strings.NewReader(line + "\n"))
		if _, ok := tr.Next(); ok {
			t.Errorf("line %q parsed", line)
			continue
		}
		if tr.Err() == nil {
			t.Errorf("line %q: no error reported", line)
		}
	}
}

// Property: any valid request sequence survives a binary round trip.
func TestBinaryRoundTripProperty(t *testing.T) {
	prop := func(seeds []uint32) bool {
		var reqs []Request
		at := event.Time(0)
		for _, s := range seeds {
			at += event.Time(s % 1000)
			r := Request{At: at, Op: Op(s % 3), LPN: uint64(s >> 8), Pages: int(s%7) + 1}
			if r.Op == OpWrite {
				r.FPs = make([]dedup.Fingerprint, r.Pages)
				for i := range r.FPs {
					r.FPs[i] = dedup.OfUint64(uint64(s) + uint64(i))
				}
			}
			reqs = append(reqs, r)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, r := range reqs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got := Collect(rd)
		if rd.Err() != nil || len(got) != len(reqs) {
			return false
		}
		for i := range got {
			if got[i].At != reqs[i].At || got[i].LPN != reqs[i].LPN ||
				got[i].Op != reqs[i].Op || got[i].Pages != reqs[i].Pages {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
