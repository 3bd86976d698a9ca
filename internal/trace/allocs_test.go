package trace

import (
	"bytes"
	"fmt"
	"testing"

	"cagc/internal/dedup"
	"cagc/internal/event"
)

// The generator fills one recycled fingerprint buffer, which grows only
// when a request is longer than any before it, so Next allocates
// nothing in steady state. (AllocsPerRun truncates its mean, so a
// budget of 0 allows those few growths.)
func TestGeneratorAmortizedAllocs(t *testing.T) {
	spec, err := Preset(Mail, 1<<16, 1<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20000, func() {
		if _, ok := g.Next(); !ok {
			t.Fatal("generator ran dry")
		}
	})
	if allocs > 0 {
		t.Fatalf("Next allocated %.3f objects/op on average, want 0", allocs)
	}
}

func TestPreconditionerAmortizedAllocs(t *testing.T) {
	spec, err := Preset(Mail, 1<<18, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPreconditioner(spec)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20000, func() {
		if _, ok := p.Next(); !ok {
			t.Fatal("preconditioner ran dry")
		}
	})
	if allocs > 0 {
		t.Fatalf("Next allocated %.3f objects/op on average, want 0", allocs)
	}
}

// The three decoders fill a recycled fingerprint buffer too, and the
// line decoders parse an ASCII line in place. Every record of the
// stream below is a write; per request no decoder may allocate.
func TestDecoderAmortizedAllocs(t *testing.T) {
	const n = 20_000
	var bin, text, fiu bytes.Buffer
	w, err := NewWriter(&bin)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, n)
	for i := range reqs {
		pages := 1 + i%4
		r := Request{At: event.Time(i) * 1000, Op: OpWrite, LPN: uint64(i), Pages: pages}
		for p := 0; p < pages; p++ {
			r.FPs = append(r.FPs, dedup.OfUint64(uint64(i%97)))
		}
		reqs[i] = r
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&fiu, "%d 1 proc %d %d W 8 1 %032x\n", 1000+i, i, pages, i%97)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteText(&text, &SliceSource{Reqs: reqs}); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		src  ErrSource
	}{
		{"binary", rd},
		{"text", NewTextReader(&text)},
		{"fiu", NewFIUReader(&fiu, 1)},
	} {
		allocs := testing.AllocsPerRun(n-1, func() {
			if _, ok := c.src.Next(); !ok {
				t.Fatalf("%s: decoder ran dry: %v", c.name, c.src.Err())
			}
		})
		if allocs > 0 {
			t.Errorf("%s: Next allocated %.3f objects/op on average, want 0", c.name, allocs)
		}
	}
}
