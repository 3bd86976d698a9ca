package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cagc"
	"cagc/internal/serve"
)

// The CLI and the service share one set of bounds: each case fails
// through cagcsim's run (or, for a knob with no flag, cagc.Job.Resolve)
// and through POST /v1/jobs with the same message, and cagcsim fails it
// before creating a profile file.
func TestBoundsMatchService(t *testing.T) {
	s := serve.New(serve.Options{})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	for _, tc := range []struct {
		args []string
		spec string
	}{
		{[]string{"-device", "-1"}, `{"params":{"DeviceBytes":-1}}`},
		{[]string{"-requests", "-5"}, `{"params":{"Requests":-5}}`},
		{[]string{"-qd", "-2"}, `{"params":{"QueueDepth":-2}}`},
		{[]string{"-buffer", "-4"}, `{"params":{"BufferPages":-4}}`},
		{[]string{"-util", "-0.2"}, `{"params":{"Utilization":-0.2}}`},
		{[]string{"-util", "1"}, `{"params":{"Utilization":1}}`},
		{[]string{"-batch", "-3"}, `{"kind":"sweep","count":-3}`},
		{[]string{"-fleet", "2", "-fleet-topk", "-2"}, `{"kind":"fleet","fleet":{"Devices":2,"TopK":-2}}`},
		{[]string{"-fleet", "2", "-fleet-stagger", "-3"}, `{"kind":"fleet","fleet":{"Devices":2,"StaggerClasses":-3}}`},
		{[]string{"-fleet", "2", "-fleet-util-spread", "1.5"}, `{"kind":"fleet","fleet":{"Devices":2,"UtilSpread":1.5}}`},
		{[]string{"-workload", "postgres"}, `{"workload":"postgres"}`},
		// Bounded whether or not the scheme reads the knob.
		{[]string{"-threshold", "-2"}, `{"params":{"RefThreshold":-2}}`},
		{[]string{"-scheme", "baseline", "-threshold", "-2"}, `{"scheme":"baseline","params":{"RefThreshold":-2}}`},
		// Knobs with no flag: the service must refuse them in Resolve.
		{nil, `{"params":{"WearLevelThreshold":-1}}`},
		{nil, `{"scheme":"baseline","params":{"IndexCapacity":-1}}`},
		{nil, `{"params":{"MappingCache":-1}}`},
		{nil, `{"params":{"EraseLimit":-1}}`},
		// JSON has no NaN or infinity, so only the CLI can ask for them.
		{[]string{"-util", "NaN"}, ""},
		{[]string{"-fleet", "2", "-fleet-util-spread", "NaN"}, ""},
		{[]string{"-fleet", "2", "-fleet-util-spread", "+Inf"}, ""},
		{[]string{"-fleet", "2", "-fleet-util-spread", "-Inf"}, ""},
		{[]string{"-fleet", "2", "-fleet-diurnal", "NaN"}, ""},
		{[]string{"-fleet", "2", "-fleet-diurnal", "+Inf"}, ""},
		{[]string{"-fleet", "2", "-fleet-diurnal", "-Inf"}, ""},
		{[]string{"-tenants", "Mail,Homes", "-diurnal-period-ms", "10", "-diurnal-amp", "NaN"}, ""},
		{[]string{"-tenants", "Mail,Homes", "-diurnal-period-ms", "10", "-diurnal-amp", "+Inf"}, ""},
		{[]string{"-tenants", "Mail,Homes", "-diurnal-period-ms", "10", "-diurnal-amp", "-Inf"}, ""},
	} {
		var err error
		if tc.args == nil {
			var j cagc.Job
			if err := json.Unmarshal([]byte(tc.spec), &j); err != nil {
				t.Fatal(err)
			}
			if _, err = j.Resolve(); err == nil {
				t.Errorf("Resolve %s: no error", tc.spec)
				continue
			}
		} else {
			cpu := filepath.Join(t.TempDir(), "cpu.pprof")
			if err = run(append(tc.args, "-cpuprofile", cpu), io.Discard, io.Discard); err == nil {
				t.Errorf("cagcsim %v: no error", tc.args)
				continue
			}
			if _, statErr := os.Stat(cpu); !os.IsNotExist(statErr) {
				t.Errorf("cagcsim %v: profile file created despite the bound", tc.args)
			}
		}
		if tc.spec == "" {
			continue
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(tc.spec)))
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if rec.Code != http.StatusBadRequest || body.Error != err.Error() {
			t.Errorf("%s: service answered %d %q, cagcsim %v said %q",
				tc.spec, rec.Code, body.Error, tc.args, err)
		}
	}
}

// Every kind the service runs renders the same document through
// cagcsim's run and through the service's HTTP handler. A batch, which
// the CLI can only express as seed-by-seed runs, is compared with the
// concatenation of those runs' documents.
func TestCLIMatchesService(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		cli  [][]string
		spec serve.JobSpec
	}{
		{"ci run", [][]string{{"-workload", "Mail", "-scheme", "cagc", "-device", "134217728", "-requests", "50"}},
			serve.JobSpec{Workload: "mail", Scheme: "cagc", Params: cagc.Params{DeviceBytes: 128 << 20, Requests: 50}}},
		{"sweep", [][]string{{"-batch", "3", "-requests", "300"}},
			serve.JobSpec{Kind: serve.KindSweep, Count: 3, Params: cagc.Params{Requests: 300}}},
		{"batch", [][]string{{"-requests", "300", "-seed", "5"}, {"-requests", "300", "-seed", "9"}},
			serve.JobSpec{Kind: serve.KindBatch, Seeds: []int64{5, 9}, Params: cagc.Params{Requests: 300}}},
		{"fleet", [][]string{{"-fleet", "2"}},
			serve.JobSpec{Kind: serve.KindFleet, Fleet: &cagc.FleetParams{Devices: 2}}},
		{"fleet with requests", [][]string{{"-fleet", "3", "-requests", "300", "-fleet-topk", "2"}},
			serve.JobSpec{Kind: serve.KindFleet, Params: cagc.Params{Requests: 300},
				Fleet: &cagc.FleetParams{Devices: 3, TopK: 2}}},
		// Shaped like the benchmark's serve_rounds jobs, at its smoke scale.
		{"bench run", [][]string{{"-workload", "Homes", "-scheme", "Baseline", "-requests", "300", "-seed", "77"}},
			serve.JobSpec{Kind: serve.KindRun, Workload: "Homes", Scheme: "Baseline",
				Params: cagc.Params{Requests: 300, Seed: 77}}},
		{"bench fleet", [][]string{{"-fleet", "4", "-workers", "1", "-fleet-util-spread", "0.1",
			"-fleet-util-classes", "2", "-fleet-stagger", "2", "-requests", "200", "-seed", "31"}},
			serve.JobSpec{Kind: serve.KindFleet, Workload: "Mail", Scheme: "CAGC",
				Params: cagc.Params{Requests: 200, Seed: 31},
				Fleet:  &cagc.FleetParams{Devices: 4, Workers: 1, UtilSpread: 0.1, UtilClasses: 2, StaggerClasses: 2}}},
		{"bench batch", [][]string{
			{"-workload", "Web-vm", "-scheme", "Baseline", "-requests", "200", "-seed", "12"},
			{"-workload", "Web-vm", "-scheme", "Baseline", "-requests", "200", "-seed", "40"}},
			serve.JobSpec{Kind: serve.KindBatch, Workload: "Web-vm", Scheme: "Baseline",
				Params: cagc.Params{Requests: 200}, Seeds: []int64{12, 40}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want bytes.Buffer
			for _, args := range tc.cli {
				if err := run(append(args, "-json"), &want, io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			if got := serviceDoc(t, ts.URL, tc.spec); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("service document differs from cagcsim's:\n--- service ---\n%.400s\n--- cagcsim ---\n%.400s",
					got, want.Bytes())
			}
		})
	}
}

// serviceDoc submits spec, waits for the job and fetches its document.
func serviceDoc(t *testing.T, base string, spec serve.JobSpec) []byte {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); st.Status == serve.StatusQueued || st.Status == serve.StatusRunning; {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", st.ID, st.Status)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.Status != serve.StatusDone {
		t.Fatalf("job %q: %s (%s)", st.ID, st.Status, st.Error)
	}
	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}
