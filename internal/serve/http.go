package serve

// HTTP surface. Thin and stdlib-only: the mux (go1.22 method+wildcard
// patterns) decodes JSON job specs, maps engine errors onto status
// codes (validation 400, admission 429 + Retry-After, shutdown 503),
// and streams artifacts. The one load-bearing subtlety is /result: it
// writes the stored document bytes VERBATIM — never re-encoded through
// a JSON layer — because byte-identity with the CLI's -json output is
// the contract CI compares against (and batch documents are multi-doc
// concatenations that would not survive re-encoding as one value).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"cagc"
	"cagc/internal/ftl"
)

// jobStatus is the wire form of a job's state (GET /v1/jobs/{id} and
// the POST /v1/jobs response). Wall-clock fields are facts about this
// execution, not part of any deterministic document.
type jobStatus struct {
	ID        string  `json:"id"`
	Kind      string  `json:"kind"`
	ConfigKey string  `json:"config_key"`
	Status    string  `json:"status"`
	Cached    bool    `json:"cached,omitempty"`
	Traced    bool    `json:"traced,omitempty"`
	Events    uint64  `json:"events,omitempty"`
	QueuedMs  float64 `json:"queued_ms"`
	RanMs     float64 `json:"ran_ms"`
	Error     string  `json:"error,omitempty"`
}

func statusOf(j *Job) jobStatus {
	st := j.State()
	return jobStatus{
		ID: st.ID, Kind: st.Kind, ConfigKey: st.Key,
		Status: st.Status, Cached: st.Cached, Traced: st.Traced,
		Events:   st.Events,
		QueuedMs: float64(st.QueuedFor) / float64(time.Millisecond),
		RanMs:    float64(st.RanFor) / float64(time.Millisecond),
		Error:    st.Err,
	}
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/summary", s.handleSummary)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/trace", s.handleServiceTrace)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// maxJobSpecBytes bounds a POST /v1/jobs body. The largest legitimate
// spec is a batch's seed list (a few bytes per seed); anything past
// 1 MiB is refused without being read further.
const maxJobSpecBytes = 1 << 20

// decodeSpec reads one job spec as POST /v1/jobs does: at most
// maxJobSpecBytes of body, unknown fields refused. w may be nil.
func decodeSpec(w http.ResponseWriter, body io.ReadCloser) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxJobSpecBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(w, r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("job spec larger than %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	j, err := s.Submit(spec)
	switch {
	case err == ErrBusy:
		w.Header().Set("Retry-After", strconv.Itoa(int(s.RetryAfter()/time.Second)))
		writeError(w, http.StatusTooManyRequests, "queue full")
		return
	case err == ErrClosed:
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	code := http.StatusAccepted
	if st := j.State(); st.Status == StatusDone && st.Cached {
		code = http.StatusOK // answered from the result cache, no queueing
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, code, statusOf(j))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	out := make([]jobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = statusOf(j)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// job looks up the request's job. An ID the registry has forgotten
// answers 410: the job finished long enough ago that newer finished
// jobs pushed it out, and resubmitting its spec answers the same bytes.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Get(id)
	switch {
	case ok:
	case s.expired(id):
		writeError(w, http.StatusGone, fmt.Sprintf("job %s expired: the service keeps the last %d finished jobs; "+
			"resubmit its spec, which answers from the result cache while the configuration is cached "+
			"and otherwise recomputes the same document", id, s.finished.max))
	default:
		writeError(w, http.StatusNotFound, "no such job")
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, statusOf(j))
	}
}

// handleResult serves the finished job's result document — the stored
// bytes verbatim, the byte-identity surface.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.State()
	switch st.Status {
	case StatusDone:
	case StatusQueued, StatusRunning:
		writeError(w, http.StatusConflict, "job not finished (status "+st.Status+")")
		return
	default:
		writeError(w, http.StatusConflict, "job "+st.Status+": "+st.Err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(st.Body)
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.State()
	if st.Status != StatusDone {
		writeError(w, http.StatusConflict, "job not done (status "+st.Status+")")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, st.Summary)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.State()
	if !st.Traced {
		writeError(w, http.StatusNotFound, "job was not traced (submit with \"trace\": true)")
		return
	}
	if st.Status == StatusQueued || st.Status == StatusRunning {
		writeError(w, http.StatusConflict, "job not finished (status "+st.Status+")")
		return
	}
	rec := j.Recorder()
	if rec == nil {
		writeError(w, http.StatusGone, fmt.Sprintf("trace of job %s released: the service keeps the recordings "+
			"of the last %d finished traced jobs; resubmit with \"trace\": true to record it again", j.ID, tracedRetained))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="`+j.ID+`.trace.json"`)
	cagc.WriteChromeTrace(w, rec)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, statusOf(j))
}

func (s *Server) handleServiceTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="serve.trace.json"`)
	cagc.WriteChromeTrace(w, s.ServiceTrace())
}

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	workloads := make([]string, len(cagc.Workloads))
	for i, n := range cagc.Workloads {
		workloads[i] = string(n)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"kinds":     kinds,
		"workloads": workloads,
		"schemes":   cagc.SchemeNames(),
		"policies":  ftl.PolicyNames(),
	})
}

// handleMetrics renders the Prometheus-style text snapshot: serving
// counters, then the substrate gauges underneath the service.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.MetricsSnapshot()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "serve_uptime_seconds %.3f\n", m.Uptime.Seconds())
	fmt.Fprintf(w, "serve_queue_depth %d\n", m.Queue.Depth)
	fmt.Fprintf(w, "serve_queue_running %d\n", m.Queue.Running)
	fmt.Fprintf(w, "serve_queue_capacity %d\n", m.Queue.Capacity)
	fmt.Fprintf(w, "serve_queue_workers %d\n", m.Queue.Workers)
	fmt.Fprintf(w, "serve_jobs_admitted_total %d\n", m.Queue.Admitted)
	fmt.Fprintf(w, "serve_jobs_rejected_total %d\n", m.Queue.Rejected)
	fmt.Fprintf(w, "serve_jobs_executed_total %d\n", m.Queue.Done)
	statuses := make([]string, 0, len(m.Jobs))
	for st := range m.Jobs {
		statuses = append(statuses, st)
	}
	sort.Strings(statuses)
	for _, st := range statuses {
		fmt.Fprintf(w, "serve_jobs_status_total{status=%q} %d\n", st, m.Jobs[st])
	}
	fmt.Fprintf(w, "serve_jobs_retained %d\n", m.Retained)
	fmt.Fprintf(w, "serve_jobs_expired_total %d\n", m.Expired)
	fmt.Fprintf(w, "serve_cache_hits_total %d\n", m.Cache.Hits)
	fmt.Fprintf(w, "serve_cache_misses_total %d\n", m.Cache.Misses)
	fmt.Fprintf(w, "serve_cache_evictions_total %d\n", m.Cache.Evictions)
	fmt.Fprintf(w, "serve_cache_entries %d\n", m.Cache.Entries)
	fmt.Fprintf(w, "serve_events_total %d\n", m.Events)
	fmt.Fprintf(w, "serve_events_per_second %.0f\n", m.EventsPerSec)
	fmt.Fprintf(w, "warm_cache_hits_total %d\n", m.WarmCache.Hits)
	fmt.Fprintf(w, "warm_cache_misses_total %d\n", m.WarmCache.Misses)
	fmt.Fprintf(w, "warm_cache_evictions_total %d\n", m.WarmCache.Evictions)
	fmt.Fprintf(w, "warm_cache_snapshots %d\n", m.WarmCache.Snapshots)
	fmt.Fprintf(w, "pool_steals_total %d\n", m.Steals)
	fmt.Fprintf(w, "sim_clones_live %d\n", m.Clones.Live)
	fmt.Fprintf(w, "sim_clones_parked %d\n", m.Clones.Parked)
	fmt.Fprintf(w, "sim_clones_fresh_total %d\n", m.Clones.Fresh)
	fmt.Fprintf(w, "sim_clones_recycled_total %d\n", m.Clones.Recycled)
	fmt.Fprintf(w, "sim_clone_reseeds_total %d\n", m.Clones.Reseeds)
	fmt.Fprintf(w, "sim_clone_reseed_bytes_total %d\n", m.Clones.ReseedBytes)
}
