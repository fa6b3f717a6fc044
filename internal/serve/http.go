package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/sat"
)

// JobView is the API representation of a job (GET /jobs/{id} and each
// element of GET /jobs).
type JobView struct {
	ID        string `json:"id"`
	Type      string `json:"type"`
	State     string `json:"state"`
	Submitted string `json:"submitted"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	// Seconds is the job's execution wall clock; a cache hit reports
	// the original computation's, not ~0.
	Seconds  float64         `json:"seconds,omitempty"`
	Cached   bool            `json:"cached,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Progress *ProgressEvent  `json:"progress,omitempty"`
}

// view snapshots a job under its lock.
func (js *jobState) view() *JobView {
	js.mu.Lock()
	defer js.mu.Unlock()
	v := &JobView{
		ID:        js.id,
		Type:      js.spec.Type,
		State:     js.state,
		Submitted: js.submitted.UTC().Format(time.RFC3339Nano),
		Seconds:   js.seconds,
		Cached:    js.cached,
		Progress:  js.progress,
	}
	if !js.started.IsZero() {
		v.Started = js.started.UTC().Format(time.RFC3339Nano)
	}
	if !js.finished.IsZero() {
		v.Finished = js.finished.UTC().Format(time.RFC3339Nano)
	}
	if js.outcome != nil {
		v.Error = js.outcome.Error
		v.Result = js.outcome.Result
	}
	return v
}

// Handler returns the daemon's HTTP surface:
//
//	POST /jobs              submit a JobSpec, returns {"id": ...}
//	GET  /jobs              list jobs (newest last)
//	GET  /jobs/{id}         one job's state and result
//	GET  /jobs/{id}/events  SSE progress stream until terminal
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /metrics           text metrics (Prometheus exposition style)
//	GET  /healthz           liveness + drain state
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// maxSpecBytes bounds a submission body (benches are text; the
// largest ISCAS bench locked with generous parameters stays far
// under this).
const maxSpecBytes = 16 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad spec: %w", err))
		return
	}
	id, err := s.Submit(&spec)
	switch {
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	}
}

// handleList streams {"jobs": [...]} one view at a time, byte for byte
// what writeJSON writes for the whole list, without holding every view
// and an indented copy of the body at once.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*jobState, 0, len(s.order))
	for _, id := range s.order {
		if js, ok := s.jobs[id]; ok {
			jobs = append(jobs, js)
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	bw.WriteString("{\n  \"jobs\": [")
	for i, js := range jobs {
		raw, err := json.MarshalIndent(js.view(), "    ", "  ")
		if err != nil {
			return
		}
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n    ")
		bw.Write(raw)
	}
	if len(jobs) > 0 {
		bw.WriteString("\n  ")
	}
	bw.WriteString("]\n}\n")
	_ = bw.Flush()
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	js, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, ErrUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, js.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		httpError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrTerminal):
		httpError(w, http.StatusConflict, err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"state": "cancelling"})
	}
}

// sseFrame renders one Server-Sent-Events frame.
func sseFrame(event string, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "event: %s\ndata: %s\n\n", event, data)
	return b.Bytes(), nil
}

// handleEvents streams job progress as SSE: an initial "state" frame,
// "progress" frames as the attack iterates, and a final "done" frame
// carrying the full job view, after which the stream ends. Slow
// consumers may miss intermediate progress frames (sends never block
// the job) but always receive the terminal frame.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	js, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, ErrUnknownJob)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("serve: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(frame []byte) bool {
		if _, err := w.Write(frame); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if frame, err := sseFrame("state", js.view()); err != nil || !send(frame) {
		return
	}
	ch, unsubscribe := js.subscribe()
	defer unsubscribe()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-js.done:
			if frame, err := sseFrame("done", js.view()); err == nil {
				send(frame)
			}
			return
		case frame := <-ch:
			if !send(frame) {
				return
			}
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"draining": s.draining.Load(),
	})
}

// handleMetrics writes plain-text metrics in the Prometheus
// exposition format (hand-rolled; the repo takes no dependencies).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	type metric struct {
		name, help string
		value      any
	}
	var cacheStats cache.Stats
	cacheEnabled := 0
	if s.opt.Cache != nil {
		cacheStats = s.opt.Cache.Stats()
		cacheEnabled = 1
	}
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	ms := []metric{
		{"rild_up", "daemon liveness", 1},
		{"rild_draining", "1 while the daemon refuses new jobs", draining},
		{"rild_uptime_seconds", "seconds since the daemon started", time.Since(s.started).Seconds()},
		{"rild_queue_depth", "jobs waiting for a worker", s.q.size()},
		{"rild_jobs_running", "jobs currently executing", s.running.Load()},
		{"rild_jobs_accepted_total", "jobs accepted since start", s.accepted.Load()},
		{"rild_jobs_done_total", "jobs finished successfully since start", s.completed.Load()},
		{"rild_jobs_failed_total", "jobs finished with an error since start", s.failed.Load()},
		{"rild_jobs_cancelled_total", "jobs cancelled since start", s.cancelled.Load()},
		{"rild_jobs_cache_hits_total", "jobs answered from the result cache", s.cacheHits.Load()},
		{"rild_oracle_queries_total", "process-wide simulated-oracle queries", attack.OracleQueriesTotal()},
		{"rild_sat_solve_calls_total", "process-wide SAT solver invocations", sat.SolveCallsTotal()},
		{"rild_solver_conflicts_total", "solver conflicts accumulated from finished jobs", s.conflicts.Load()},
		{"rild_cache_enabled", "1 when a result cache is attached", cacheEnabled},
		{"rild_cache_hits_total", "result-cache entry hits", cacheStats.Hits},
		{"rild_cache_misses_total", "result-cache entry misses", cacheStats.Misses},
		{"rild_cache_invalidations_total", "result-cache entries that failed their checksum", cacheStats.Invalidations},
		{"rild_cache_puts_total", "result-cache entries stored", cacheStats.Puts},
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	for _, m := range ms {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, metricType(m.name))
		switch v := m.value.(type) {
		case float64:
			fmt.Fprintf(w, "%s %g\n", m.name, v)
		default:
			fmt.Fprintf(w, "%s %d\n", m.name, v)
		}
	}
}

// metricType classifies a metric name for the TYPE line.
func metricType(name string) string {
	if len(name) > 6 && name[len(name)-6:] == "_total" {
		return "counter"
	}
	return "gauge"
}
