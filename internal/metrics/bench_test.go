package metrics

import (
	"testing"

	"cagc/internal/event"
)

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(event.Time(i%1000000 + 1))
	}
}

func BenchmarkHistogramPercentile(b *testing.B) {
	var h Histogram
	for i := 0; i < 100000; i++ {
		h.Record(event.Time(i%997 + 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Percentile(0.99)
	}
}
