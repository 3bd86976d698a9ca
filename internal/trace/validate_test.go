package trace

import (
	"math"
	"strings"
	"testing"
)

// A NaN passes every range test Validate used to make, and a NaN
// AddrSkew made the first Next spin forever; every float field must be
// finite, and neither the generator nor the preconditioner may start on
// a spec that is not.
func TestSpecValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Spec, float64)
	}{
		{"WriteRatio", func(s *Spec, v float64) { s.WriteRatio = v }},
		{"DedupRatio", func(s *Spec, v float64) { s.DedupRatio = v }},
		{"AvgReqPages", func(s *Spec, v float64) { s.AvgReqPages = v }},
		{"BurstMean", func(s *Spec, v float64) { s.BurstMean = v }},
		{"TrimFraction", func(s *Spec, v float64) { s.TrimFraction = v }},
		{"TrimPages", func(s *Spec, v float64) { s.TrimPages = v }},
		{"ContentSkew", func(s *Spec, v float64) { s.ContentSkew = v }},
		{"AddrSkew", func(s *Spec, v float64) { s.AddrSkew = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			spec, err := Preset(Mail, 2105, 100, 1)
			if err != nil {
				t.Fatal(err)
			}
			f.set(&spec, v)
			err = spec.Validate()
			if err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: Validate gives %v, want an error naming the field", f.name, v, err)
			}
			if _, err := NewGenerator(spec); err == nil {
				t.Errorf("%s = %v: NewGenerator accepted the spec", f.name, v)
			}
			if _, err := NewPreconditioner(spec); err == nil {
				t.Errorf("%s = %v: NewPreconditioner accepted the spec", f.name, v)
			}
		}
	}
}
