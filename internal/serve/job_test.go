package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cagc"
)

// The fan-out cap sits exactly at maxJobRuns for every kind that fans
// out, and is judged before the job is resolved, which allocates and
// hashes per run.
func TestResolveCapsFanOut(t *testing.T) {
	seeds := func(n int) []int64 { return make([]int64, n) }
	for _, tc := range []struct {
		name string
		spec func(n int) JobSpec
	}{
		{"sweep", func(n int) JobSpec { return JobSpec{Kind: KindSweep, Count: n} }},
		{"batch", func(n int) JobSpec { return JobSpec{Kind: KindBatch, Seeds: seeds(n)} }},
		{"fleet", func(n int) JobSpec { return JobSpec{Kind: KindFleet, Fleet: &cagc.FleetParams{Devices: n}} }},
	} {
		if _, _, err := tc.spec(maxJobRuns).admit(0, 0); err != nil {
			t.Errorf("%s of %d runs (the cap): %v", tc.name, maxJobRuns, err)
		}
		if _, _, err := tc.spec(maxJobRuns+1).admit(0, 0); err == nil {
			t.Errorf("%s of %d runs accepted past the cap", tc.name, maxJobRuns+1)
		}
	}
}

// An oversized sweep is a 40-byte body. It must be answered at once with
// a 400 and the JSON error body, and leave no job and no queue slot
// behind. Uncapped, this one would allocate and hash a million ConfigKeys
// in the handler before admission.
func TestServeRejectsOversizedSweep(t *testing.T) {
	s := New(Options{QueueDepth: 2, Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	body := `{"kind":"sweep","count":1000000}`
	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewBufferString(body)))
	if took := time.Since(start); took > time.Second {
		t.Errorf("oversized sweep took %v to answer", took)
	}
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized sweep: status %d, want 400; body %s", rec.Code, rec.Body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("400 body is not the JSON error document: %q (%v)", rec.Body, err)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("rejected sweep left %d jobs in the registry", n)
	}
	if q := s.MetricsSnapshot().Queue; q.Depth != 0 || q.Admitted != 0 || q.Rejected != 0 {
		t.Errorf("rejected sweep touched the queue: %+v", q)
	}
}

// FuzzJobSpec drives bytes through the handler's decoding, admission
// and the shared cagc.Job.Resolve: no input may panic, an accepted spec
// stays inside the fan-out cap, and resolving is a function of the spec
// (same cache key twice). The seed corpus under
// testdata/fuzz/FuzzJobSpec holds a run, batch, sweep, fleet and traced
// spec and one with an unknown field.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"workload":"mail","params":{"Requests":50}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(nil, io.NopCloser(bytes.NewReader(data)))
		if err != nil {
			return
		}
		r, _, err := spec.admit(time.Minute, time.Hour)
		if err != nil {
			return
		}
		if len(r.Seeds) > maxJobRuns || spec.Fleet != nil && spec.Fleet.Devices > maxJobRuns {
			t.Fatalf("accepted %d seeds, fleet %+v past the cap %d", len(r.Seeds), spec.Fleet, maxJobRuns)
		}
		again, _, err := spec.admit(time.Minute, time.Hour)
		if err != nil {
			t.Fatalf("second admission failed: %v", err)
		}
		if again.Key != r.Key {
			t.Fatalf("second admission: key %q, first %q", again.Key, r.Key)
		}
	})
}
