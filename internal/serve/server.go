package serve

// The HTTP surface over the queue. Five endpoints under /v1:
//
//	POST   /v1/jobs             submit a versioned plan-spec envelope
//	GET    /v1/jobs/{id}        job status (state, dedup flags, stats)
//	GET    /v1/jobs/{id}/result the run's report, versioned envelope
//	GET    /v1/jobs/{id}/events SSE progress stream (replay, then live)
//	DELETE /v1/jobs/{id}        cancel the job's run
//	GET    /v1/stats            queue lifetime counters
//	GET    /v1/healthz          liveness
//
// Submits are detached by default: a 202 with the job's status, the
// run pinned to completion, result fetched later. ?wait=1 submits
// attached: the request holds the run's lease and blocks until the
// report (200) or failure — and if every attached client disconnects
// before the run finishes, its context is cancelled and the engine
// unwinds. Tenancy rides the X-Tenant header; each tenant gets the
// queue's per-tenant concurrency budget.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro"
)

// MaxSpecBytes bounds a submit body; larger requests fail with 413.
// Inline streams meant to exceed this belong in columnar files.
const MaxSpecBytes = 16 << 20

// JobStatus is the status document of GET /v1/jobs/{id} and the body
// of a 202 submit response.
type JobStatus struct {
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant"`
	Key       string   `json:"key"`
	State     JobState `json:"state"`
	CacheHit  bool     `json:"cache_hit"`
	Coalesced bool     `json:"coalesced"`
	Error     string   `json:"error,omitempty"`
	// Stats is the run's engine instrumentation, present once done —
	// the per-run numbers that deliberately do not travel inside the
	// report.
	Stats *repro.EngineStats `json:"stats,omitempty"`
}

// errorBody is every non-2xx JSON body: {"error": "..."}.
type errorBody struct {
	Error string `json:"error"`
}

// Server is the HTTP handler over a queue.
type Server struct {
	queue *Queue
	mux   *http.ServeMux
	// MaxBody bounds request bodies; 0 selects MaxSpecBytes. Tests use
	// a small bound to pin the 413 path without multi-megabyte bodies.
	MaxBody int64
}

// NewServer builds the handler; the queue's lifetime stays the
// caller's (Close the queue after the HTTP server shuts down).
func NewServer(q *Queue) *Server {
	s := &Server{queue: q, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/shards", s.handleShard)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return s
}

func (s *Server) maxBody() int64 {
	if s.MaxBody > 0 {
		return s.MaxBody
	}
	return MaxSpecBytes
}

// readBody reads a bounded request body, mapping oversize to 413.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	limit := s.maxBody()
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return nil, false
	}
	if int64(len(body)) > limit {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", limit))
		return nil, false
	}
	return body, true
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	spec, err := DecodePlan(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	attached := false
	if v := r.URL.Query().Get("wait"); v != "" {
		attached, err = strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("wait: %w", err))
			return
		}
	}
	job, err := s.queue.Submit(r.Context(), spec, SubmitOptions{
		Tenant:   TenantOf(r.Header.Get("X-Tenant")),
		Attached: attached,
	})
	if err != nil {
		writeError(w, submitStatus(err), err)
		return
	}

	if !attached {
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, statusOf(job))
		return
	}

	// Attached: hold the request (and so the run's lease) open until
	// the report. A disconnect cancels the lease via r.Context().
	rep, err := job.Wait(r.Context())
	if err != nil {
		writeError(w, waitStatus(err), fmt.Errorf("job %s: %w", job.ID, err))
		return
	}
	data, err := EncodeReport(rep)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Job-ID", job.ID)
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleShard is the worker half of distributed execution: one shard
// envelope in, its partial-report envelope out, synchronously. Shards
// ride the ordinary queue — admission control, tenant budgets, result
// cache and coalescing all apply — as attached submits, so a
// coordinator disconnecting (timeout, retry elsewhere) cancels the
// shard's run instead of leaving it burning. A stream ref whose pinned
// hash no longer matches the worker's file fails with 409, keeping a
// stale worker out of the fold.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	sh, err := DecodeShard(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.queue.Submit(r.Context(), sh.Spec, SubmitOptions{
		Tenant:   TenantOf(r.Header.Get("X-Tenant")),
		Attached: true,
	})
	if err != nil {
		writeError(w, submitStatus(err), err)
		return
	}
	rep, err := job.Wait(r.Context())
	if err != nil {
		writeError(w, waitStatus(err), fmt.Errorf("shard lane %d (job %s): %w", sh.Lane, job.ID, err))
		return
	}
	data, err := EncodePartial(&Partial{Lane: sh.Lane, Report: rep})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Job-ID", job.ID)
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, statusOf(job))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	rep, done := job.Report()
	if !done {
		st := job.State()
		if st == StateFailed || st == StateCanceled {
			writeError(w, http.StatusConflict, fmt.Errorf("job %s %s: %w", job.ID, st, job.Err()))
			return
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, fmt.Errorf("job %s still %s", job.ID, st))
		return
	}
	data, err := EncodeReport(rep)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleEvents streams the job's progress as SSE: every buffered event
// replays first, then live events as the engine emits them, then one
// terminal "done" event carrying the job's final status. Watching
// holds a lease, so an attached run stays alive while anyone streams
// its progress.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, errors.New("response writer cannot stream"))
		return
	}
	release := job.Acquire()
	defer release()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	next := 0
	for {
		evs, more, finished := job.Progress(next)
		for _, ev := range evs {
			data, err := EncodeProgress(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		}
		next += len(evs)
		if len(evs) > 0 {
			fl.Flush()
		}
		if finished {
			final, _ := json.Marshal(statusOf(job))
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", final)
			fl.Flush()
			return
		}
		select {
		case <-more:
		case <-job.Done():
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, statusOf(job))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		QueueStats
		Gauges QueueGauges `json:"gauges"`
	}{s.queue.Stats(), s.queue.Gauges()})
}

// handleHealthz is the liveness probe: always 200 while the process
// serves, with the queue's instantaneous depth for monitors that want
// more than a pulse.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string      `json:"status"`
		Gauges QueueGauges `json:"gauges"`
	}{"ok", s.queue.Gauges()})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.queue.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil, false
	}
	return job, true
}

func statusOf(job *Job) JobStatus {
	st := JobStatus{
		ID:        job.ID,
		Tenant:    job.Tenant,
		Key:       job.Key,
		State:     job.State(),
		CacheHit:  job.CacheHit,
		Coalesced: job.Coalesced,
	}
	if err := job.Err(); err != nil {
		st.Error = err.Error()
	}
	if st.State == StateDone {
		es := job.EngineStats()
		st.Stats = &es
	}
	return st
}

// submitStatus maps Submit errors onto response codes.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrStreamChanged):
		return http.StatusConflict
	default:
		// Bad refs, unknown metrics/selectors, invalid windows — every
		// other submit failure is the client's spec.
		return http.StatusBadRequest
	}
}

// waitStatus maps attached-wait failures onto response codes. 499 is
// nginx's client-closed-request: the client went away mid-run — the
// response is moot (nobody is listening) but keeps logs honest.
func waitStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 499
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}
