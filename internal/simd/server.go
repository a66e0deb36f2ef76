package simd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a Request; 202 + Status (200 on a cache hit)
//	GET    /v1/jobs/{id}        job status; includes result once done
//	DELETE /v1/jobs/{id}        cancel; 202 + Status
//	GET    /v1/jobs/{id}/events SSE stream: state / progress / snapshot frames
//	GET    /v1/stats            queue depth, per-state job counts, cache counters
//
// Invalid specs come back as 422 with the *netspec.StanzaError text, a
// full queue as 429. All bodies are JSON.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", e.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", e.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", e.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", e.handleEvents)
	mux.HandleFunc("GET /v1/stats", e.handleStats)
	return mux
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBytes caps a POST /v1/jobs body. A spec is a few KB, so
// the cap is generous for any real request and stops one from making
// the decoder buffer without bound.
const maxRequestBytes = 1 << 20

func (e *Engine) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	job, err := e.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		// Validation failures, including wrapped *netspec.StanzaError.
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	st := job.Status()
	if st.Cached {
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (e *Engine) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := e.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
	}
	return job, ok
}

func (e *Engine) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := e.job(w, r); ok {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

func (e *Engine) handleCancel(w http.ResponseWriter, r *http.Request) {
	if job, ok := e.job(w, r); ok {
		job.Cancel()
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

func (e *Engine) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, e.Stats())
}

// handleEvents streams the job as server-sent events. Every stream
// opens with a catch-up "state" frame (and "progress", once known),
// then carries live frames until the job goes terminal; the closing
// frame is re-read from Status, so even a subscriber whose buffer
// overflowed sees the authoritative final state.
func (e *Engine) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := e.job(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	emit := func(ev Event) bool {
		data, err := json.Marshal(ev.Data)
		if err != nil {
			return false
		}
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		fl.Flush()
		return err == nil
	}

	ch, catchUp := job.Subscribe()
	defer job.Unsubscribe(ch)
	for _, ev := range catchUp {
		if !emit(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// Terminal: close with the authoritative state frame.
				st := job.Status()
				emit(Event{Type: "state", Data: StateEvent{ID: st.ID, State: st.State, Error: st.Error}})
				return
			}
			if !emit(ev) {
				return
			}
		}
	}
}
