package cagc

import (
	"math"
	"strings"
	"testing"
)

// Utilization must lie in (0, 1); a NaN used to pass the bound and fail
// later inside the FTL with an absurd logical page count.
func TestUtilizationBounds(t *testing.T) {
	for _, u := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.2, 1, 1.5} {
		p := testParams()
		p.Utilization = u
		_, err := Job{Params: p}.Resolve()
		if err == nil || !strings.Contains(err.Error(), "Params.Utilization") {
			t.Errorf("Utilization %v: Resolve gives %v, want the Utilization bound", u, err)
		}
		if _, err := Run(Mail, CAGC, "greedy", p); err == nil || !strings.Contains(err.Error(), "Params.Utilization") {
			t.Errorf("Utilization %v: Run gives %v, want the Utilization bound", u, err)
		}
	}
}
