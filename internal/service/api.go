package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Handler builds the daemon's HTTP API over the service:
//
//	POST   /v1/jobs             submit a job (JobSpec JSON) → 201 View
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result completed result (?assignment=0 omits labels)
//	DELETE /v1/jobs/{id}        abort (graceful: checkpoint, then stop)
//	GET    /v1/jobs/{id}/events SSE progress stream (Last-Event-ID resumes)
//	GET    /v1/stats            daemon counters
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleAbort)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes v compact: status polls and result fetches are read by
// programs, and indenting every body costs the daemon and its clients alike.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away; nothing to do
}

// maxSubmitBytes bounds a submission body. Inline graphs are for small
// inputs; anything that does not fit travels by graph_path.
const maxSubmitBytes = 8 << 20

// writeErr maps service error kinds onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadSpec):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotDone), errors.Is(err, ErrJobTerminal):
		status = http.StatusConflict
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

// readSpec decodes a submission body: one JobSpec of at most maxSubmitBytes,
// with no field JobSpec does not have.
func readSpec(w http.ResponseWriter, r *http.Request) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("%w: body: %w", ErrBadSpec, err)
	}
	return spec, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := readSpec(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	v, err := s.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+v.ID)
	writeJSON(w, http.StatusCreated, v)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	v, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	withAssignment := r.URL.Query().Get("assignment") != "0"
	res, err := s.Result(r.PathValue("id"), withAssignment)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleAbort(w http.ResponseWriter, r *http.Request) {
	v, err := s.Abort(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleEvents streams the job's progress as server-sent events. Every event
// carries its sequence number as the SSE id, so a client that reconnects
// with Last-Event-ID resumes exactly where it dropped — the per-job log is
// append-only and never trimmed while the job exists. The stream ends after
// a terminal event (done/failed/aborted) or when the client goes away.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	h, err := s.Events(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported"})
		return
	}
	var from int64
	if lid := r.Header.Get("Last-Event-ID"); lid != "" {
		if n, err := strconv.ParseInt(lid, 10, 64); err == nil && n > 0 {
			from = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	sub, cancel := h.subscribe()
	defer cancel()
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		events, closed := h.since(from)
		for _, e := range events {
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
			from = e.Seq
		}
		if len(events) > 0 {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-sub.wake:
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		}
	}
}
