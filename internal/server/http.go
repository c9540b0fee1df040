package server

// The HTTP/JSON surface. Routes (Go 1.22 pattern matching):
//
//	GET  /healthz             — admission ledger + build info
//	GET  /metrics             — Prometheus text exposition (v0.0.4): the
//	                            server sink plus every job sink, labeled
//	                            by job_id/tenant/technique
//	POST /jobs                — submit a JobSpec, returns its JobStatus
//	GET  /jobs                — list all jobs
//	GET  /jobs/{id}           — one job's status
//	POST /jobs/{id}/cancel    — cancel in any non-terminal state
//	POST /jobs/{id}/pause     — checkpoint and release a running job
//	POST /jobs/{id}/resume    — re-admit a paused job from its checkpoint
//	GET  /jobs/{id}/telemetry — one job's series of /metrics, same exposition
//	GET  /jobs/{id}/stream    — Server-Sent Events: one "step" event per
//	                            completed step, one final "state" event
//
// Queued submissions answer 202 with a Retry-After header derived from
// the queue-position backoff hint; rejected ones answer 409.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"gist/internal/telemetry/promexport"
)

// contentTypeProm is the Prometheus text exposition media type; the
// version parameter is part of the scrape contract.
const contentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleVerb(s.Cancel))
	mux.HandleFunc("POST /jobs/{id}/pause", s.handleVerb(s.Pause))
	mux.HandleFunc("POST /jobs/{id}/resume", s.handleVerb(s.Resume))
	mux.HandleFunc("GET /jobs/{id}/telemetry", s.handleJobTelemetry)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownJob):
		code = http.StatusNotFound
	case errors.Is(err, ErrBadTransition):
		code = http.StatusConflict
	case errors.Is(err, errShutdown):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", contentTypeProm)
	_ = s.reg.Write(w)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad job spec: " + err.Error()})
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		if errors.Is(err, errShutdown) {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	switch st.State {
	case StateRejected:
		writeJSON(w, http.StatusConflict, st)
	case StateQueued:
		w.Header().Set("Retry-After", strconv.FormatInt(max(st.RetryAfterMS/1000, 1), 10))
		writeJSON(w, http.StatusAccepted, st)
	default:
		writeJSON(w, http.StatusCreated, st)
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleVerb adapts a lifecycle method (Cancel/Pause/Resume) to a
// handler answering the job's post-verb status.
func (s *Server) handleVerb(verb func(id string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := verb(id); err != nil {
			writeErr(w, err)
			return
		}
		st, err := s.Get(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	}
}

// handleJobTelemetry renders one job's sink through a one-entry registry
// under the labels /metrics gives it, so every line here is a line there.
func (s *Server) handleJobTelemetry(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	reg := promexport.NewRegistry()
	reg.Register(j.tel, j.labels()...)
	w.Header().Set("Content-Type", contentTypeProm)
	_ = reg.Write(w)
}

// handleStream renders a job's step stream as Server-Sent Events: one
// "step" event per completed step, then one final "state" event with the
// terminal status. Slow consumers lose step events (counted under
// server.sse.dropped), never the final state. Each stream renders every
// frame through one buffer and one JSON encoder, and receives every step
// event into one StreamEvent, so a step frame allocates nothing.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sub, err := s.Subscribe(id, 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer sub.Close()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	// send writes "event: <name>\ndata: <JSON>\n\n": Encode ends the JSON
	// with the first of the two newlines.
	send := func(event string, v any) bool {
		buf.Reset()
		buf.WriteString("event: ")
		buf.WriteString(event)
		buf.WriteString("\ndata: ")
		if err := enc.Encode(v); err != nil {
			return false
		}
		buf.WriteByte('\n')
		if _, err := w.Write(buf.Bytes()); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	var ev StreamEvent
	for {
		select {
		case ev = <-sub.C:
			if !send("step", &ev) {
				return
			}
		case <-sub.Done:
			// Drain whatever was buffered before the terminal transition,
			// then close with the final status.
			for {
				select {
				case ev = <-sub.C:
					if !send("step", &ev) {
						return
					}
					continue
				default:
				}
				break
			}
			if st, err := s.Get(id); err == nil {
				send("state", st)
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}
