package trace

import (
	"bytes"
	"io"
	"testing"
)

func benchSpec(requests int) Spec {
	s := Spec{
		Name: "bench", WriteRatio: 0.7, DedupRatio: 0.5, AvgReqPages: 4,
		LogicalPages: 1 << 16, Requests: requests, TrimFraction: 0.02,
		TrimPages: 8, ContentSkew: 1.4, AddrSkew: 1.2, ContentPool: 2048, Seed: 1,
	}
	return s
}

func BenchmarkGeneratorNext(b *testing.B) {
	g, err := NewGenerator(benchSpec(1 << 62))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("exhausted")
		}
	}
}

func BenchmarkBinaryEncodeDecode(b *testing.B) {
	g, _ := NewGenerator(benchSpec(2000))
	reqs := Collect(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reqs {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		rd, err := NewReader(&buf)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, ok := rd.Next(); !ok {
				break
			}
			n++
		}
		if n != len(reqs) {
			b.Fatalf("decoded %d", n)
		}
	}
}

// BenchmarkGeneratorPresets times Next on each preset at the default
// 16 MiB device's logical space; BenchmarkPreconditionerPresets times
// a whole preconditioning pass per iteration.
func BenchmarkGeneratorPresets(b *testing.B) {
	for _, w := range Workloads {
		b.Run(string(w), func(b *testing.B) {
			spec, err := Preset(w, 2105, 1<<62, 7)
			if err != nil {
				b.Fatal(err)
			}
			g, err := NewGenerator(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := g.Next(); !ok {
					b.Fatal("exhausted")
				}
			}
		})
	}
}

func BenchmarkPreconditionerPresets(b *testing.B) {
	for _, w := range Workloads {
		b.Run(string(w), func(b *testing.B) {
			spec, err := Preset(w, 1<<16, 1, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := NewPreconditioner(spec)
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, ok := p.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// BenchmarkDecodeHomes decodes a 250 000-request Homes trace in the
// binary and text formats; ns/op is per trace, so divide by
// 250 000 for ns per request.
func BenchmarkDecodeHomes(b *testing.B) {
	spec, err := Preset(Homes, 2105, 250_000, 5)
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenerator(spec)
	if err != nil {
		b.Fatal(err)
	}
	var bin, text bytes.Buffer
	w, err := NewWriter(&bin)
	if err != nil {
		b.Fatal(err)
	}
	reqs := Collect(g)
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	if _, err := WriteText(&text, &SliceSource{Reqs: reqs}); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		open func(io.Reader) (Source, error)
	}{
		{"binary", bin.Bytes(), func(r io.Reader) (Source, error) { return NewReader(r) }},
		{"text", text.Bytes(), func(r io.Reader) (Source, error) { return NewTextReader(r), nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.data)))
			for i := 0; i < b.N; i++ {
				src, err := c.open(bytes.NewReader(c.data))
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					if _, ok := src.Next(); !ok {
						break
					}
					n++
				}
				if n != len(reqs) {
					b.Fatalf("decoded %d of %d", n, len(reqs))
				}
			}
		})
	}
}

// BenchmarkEncodeHomes encodes the 250 000-request Homes trace of
// BenchmarkDecodeHomes in the binary format to io.Discard: the
// encoder's own cost, without a file system behind it.
func BenchmarkEncodeHomes(b *testing.B) {
	spec, err := Preset(Homes, 2105, 250_000, 5)
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenerator(spec)
	if err != nil {
		b.Fatal(err)
	}
	reqs := Collect(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewWriter(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reqs {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/request")
}
