package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"sops"
	"sops/internal/telemetry"
)

// Server is the versioned HTTP face of a Manager:
//
//	POST   /v1/jobs             — submit a job (Spec JSON); 201 + status
//	GET    /v1/jobs             — list all jobs (?tenant= filters)
//	GET    /v1/jobs/{id}        — one job's status, metrics and trace tail
//	GET    /v1/jobs/{id}/events — live status stream as Server-Sent Events
//	DELETE /v1/jobs/{id}        — cancel a queued or running job
//
// Every response body is JSON (the event stream frames JSON in SSE).
// Errors use the {"error": "..."} envelope with conventional status codes:
// 400 for malformed or invalid specs (the message names the offending
// field via the sops validation errors), 404 for unknown jobs, 409 for
// canceling a finished job, 503 (with Retry-After) when queue-depth
// backpressure sheds a submission or the daemon is shutting down.
type Server struct {
	m *Manager
}

// maxSpecBytes bounds a submitted spec's body; a larger one is answered
// 400 without being decoded.
const maxSpecBytes = 1 << 20

// NewServer wraps a manager in the HTTP API.
func NewServer(m *Manager) *Server { return &Server{m: m} }

// Handler returns the /v1 routes, for mounting into a mux alongside the
// telemetry debug routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.list)
	mux.HandleFunc("GET /v1/jobs/{id}", s.get)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	return mux
}

// writeJSON sends v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeError maps err to a status code and a friendly message. Validation
// sentinels become actionable 400s instead of raw Go error chains; a shed
// submission becomes 503 with a Retry-After hint.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	msg := err.Error()
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrFinished):
		code = http.StatusConflict
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
		msg = "server is shutting down; resubmit after restart"
	case errors.Is(err, ErrBacklogged):
		w.Header().Set("Retry-After", "5")
		code = http.StatusServiceUnavailable
		msg = "job queue is at its high-water mark; retry shortly"
	case errors.Is(err, ErrNoWork), errors.Is(err, ErrBothWork):
		code = http.StatusBadRequest
		msg = "spec must carry exactly one of \"run\" or \"sweep\""
	case errors.Is(err, sops.ErrEmptySweep):
		code = http.StatusBadRequest
		msg = "sweep grid is empty: \"lambdas\" and \"gammas\" each need at least one value"
	case errors.Is(err, sops.ErrNoSteps):
		code = http.StatusBadRequest
		msg = "\"steps\" must be a positive number of chain iterations"
	case errors.Is(err, sops.ErrNoCounts):
		code = http.StatusBadRequest
		msg = "\"counts\" must list at least one particle per color, with no negative entries"
	case errors.Is(err, sops.ErrBadLayout):
		code = http.StatusBadRequest
		msg = "\"layout\" must be \"spiral\", \"line\", or omitted"
	case errors.Is(err, sops.ErrBadLambda):
		code = http.StatusBadRequest
		msg = "\"lambda\" must be positive and finite"
	case errors.Is(err, sops.ErrBadGamma):
		code = http.StatusBadRequest
		msg = "\"gamma\" must be positive and finite"
	}
	writeJSON(w, code, errorBody{Error: msg})
}

// submit handles POST /v1/jobs.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("read body: %v", err)})
		return
	}
	spec := new(Spec)
	if err := json.Unmarshal(body, spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("malformed spec: %v", err)})
		return
	}
	st, err := s.m.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

// list handles GET /v1/jobs.
func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	all := s.m.List()
	if tenant != "" {
		filtered := all[:0:0]
		for _, st := range all {
			if st.Tenant == tenant {
				filtered = append(filtered, st)
			}
		}
		all = filtered
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []Status `json:"jobs"`
	}{Jobs: all})
}

// get handles GET /v1/jobs/{id}.
func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	st, err := s.m.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// cancel handles DELETE /v1/jobs/{id}.
func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.m.Cancel(id); err != nil {
		writeError(w, err)
		return
	}
	st, err := s.m.Status(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// events handles GET /v1/jobs/{id}/events: the job's Status document as an
// SSE stream on ?interval= cadence (default 1s), closing after the frame
// that carries a terminal state — so `curl -N` follows a job to completion
// and exits.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.m.Status(id); err != nil {
		writeError(w, err)
		return
	}
	interval := time.Second
	if v := r.URL.Query().Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "interval must be a positive duration (e.g. 500ms)"})
			return
		}
		interval = d
	}
	telemetry.SSE(w, r, interval, func() (any, bool) {
		st, err := s.m.Status(id)
		if err != nil {
			return errorBody{Error: err.Error()}, true
		}
		return st, st.State.Terminal()
	})
}
