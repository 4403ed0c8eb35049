package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"cryowire/internal/jobs"
)

// The asynchronous DSE job API. Unlike the synchronous /v1/dse
// endpoint, jobs are durable: a submission is on disk before the 202
// leaves the server, survives crashes and restarts, and has no
// space-size cap — the journal checkpoint makes arbitrarily long
// searches safe to run behind an HTTP accept.
//
//	POST   /v1/dse/jobs             submit (202 + state, rate limited)
//	GET    /v1/dse/jobs             list all jobs
//	GET    /v1/dse/jobs/{id}        poll one job's state
//	GET    /v1/dse/jobs/{id}/result final frontier (byte-identical to
//	                                `cryowire dse -json`)
//	GET    /v1/dse/jobs/{id}/events SSE state stream, resumable via
//	                                Last-Event-ID across restarts
//	DELETE /v1/dse/jobs/{id}        cancel (active) / remove (terminal)
//
// These endpoints bypass the admission semaphore: polling and event
// streams are cheap and long-lived, and must stay responsive exactly
// when the compute slots are saturated with the work they observe.

// jobsEnabled guards every handler; the API mounts only when the
// server was configured with a JobsDir.
func (s *Server) jobsEnabled(w http.ResponseWriter) bool {
	if s.jobs == nil {
		writeError(w, http.StatusNotFound, "async jobs are disabled; start the server with -jobs-dir")
		return false
	}
	return true
}

// rateLimited wraps the submission endpoint with the per-client token
// bucket. The Retry-After header is the bucket's actual refill time,
// rounded up — an honest wait, not a constant.
func (s *Server) rateLimited(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.limiter != nil {
			if ok, wait := s.limiter.allow(clientKey(r)); !ok {
				s.metrics.rejectedRate.Add(1)
				w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(wait)))
				writeError(w, http.StatusTooManyRequests,
					fmt.Sprintf("job submission rate limit exceeded; retry in %ds", ceilSeconds(wait)))
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// handleJobSubmit accepts the same body as POST /v1/dse but runs the
// search asynchronously, so the 4096-candidate cap does not apply.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	var dto dseDTO
	if err := decodeStrict(r, &dto); err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	cfg, err := dto.resolve(0) // async: no candidate cap
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	st, err := s.jobs.Submit(jobs.SpecFromConfig(cfg))
	if err != nil {
		status := http.StatusInternalServerError
		if strings.Contains(err.Error(), "draining") {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/dse/jobs/"+st.ID)
	writeJSONStatus(w, http.StatusAccepted, st)
}

// handleJobList returns every job's state plus the queue depth.
func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	writeJSONStatus(w, http.StatusOK, map[string]any{
		"jobs":        s.jobs.List(),
		"queue_depth": s.jobs.QueueDepth(),
	})
}

// handleJobGet polls one job.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	_, st, _, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeJobError(w, r.PathValue("id"), err)
		return
	}
	writeJSONStatus(w, http.StatusOK, st)
}

// handleJobResult serves the stored result document verbatim — the
// bytes are the journal-backed frontier, identical to what an
// uninterrupted `cryowire dse -json` run would print.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	id := r.PathValue("id")
	body, err := s.jobs.Result(id)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", id))
			return
		}
		// Known job in a non-done state: the poll URL tells the client
		// what to wait for.
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, body)
}

// handleJobJournal serves the job's checkpoint journal verbatim as
// NDJSON: the header line plus one line per completed evaluation. It
// lets a client mirror a job's progress point by point — the bytes are
// the ground truth the job's state merely indexes. A job that has
// not checkpointed yet yields an empty 200 body, and a concurrent read
// races the appender at worst into a torn final line, which every
// parser in the system already drops.
func (s *Server) handleJobJournal(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	id := r.PathValue("id")
	body, err := s.jobs.Journal(id)
	if err != nil {
		writeJobError(w, id, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// handleJobDelete cancels an active job (200 + state) or removes a
// terminal one (204).
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	id := r.PathValue("id")
	_, st, _, err := s.jobs.Get(id)
	if err != nil {
		writeJobError(w, id, err)
		return
	}
	if st.Status.Terminal() {
		if err := s.jobs.Delete(id); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	st, _, err = s.jobs.Cancel(id)
	if err != nil {
		writeJobError(w, id, err)
		return
	}
	writeJSONStatus(w, http.StatusOK, st)
}

// handleJobEvents streams a job's state changes as server-sent events.
// Every event is a full state snapshot (not a delta), so a client that
// reconnects — even to a restarted server — needs no history: a
// Last-Event-ID from this incarnation suppresses the duplicate initial
// snapshot, and one from a previous incarnation (different boot id) is
// simply stale, prompting a fresh snapshot. The stream ends when the
// job reaches a terminal state or the server begins draining; clients
// reconnect and resume.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	id := r.PathValue("id")
	ch, unsub, err := s.jobs.Subscribe(id)
	if err != nil {
		writeJobError(w, id, err)
		return
	}
	defer unsub()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	lastSeq, haveLast := s.parseEventID(r.Header.Get("Last-Event-ID"))
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		_, st, seq, err := s.jobs.Get(id)
		if err != nil {
			return // deleted mid-stream; the stream just ends
		}
		if !haveLast || seq > lastSeq {
			if err := writeSSE(w, flusher, s.jobs.BootID(), seq, st); err != nil {
				return
			}
			lastSeq, haveLast = seq, true
		}
		if st.Status.Terminal() {
			return
		}
		select {
		case <-ch:
		case <-heartbeat.C:
			// Comment line keeps intermediaries from timing the stream out.
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.jobs.Draining():
			fmt.Fprint(w, ": server draining, reconnect\n\n")
			flusher.Flush()
			return
		}
	}
}

// parseEventID splits "<bootID>-<seq>". A malformed id or one from a
// different boot is stale: the client gets a fresh snapshot.
func (s *Server) parseEventID(v string) (seq uint64, ok bool) {
	boot, seqStr, found := strings.Cut(v, "-")
	if !found || boot != s.jobs.BootID() {
		return 0, false
	}
	n, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// writeSSE emits one state snapshot event.
func writeSSE(w http.ResponseWriter, f http.Flusher, bootID string, seq uint64, st jobs.State) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "id: %s-%d\nevent: state\ndata: %s\n\n", bootID, seq, data); err != nil {
		return err
	}
	f.Flush()
	return nil
}

// writeJobError maps manager errors onto HTTP statuses.
func writeJobError(w http.ResponseWriter, id string, err error) {
	if errors.Is(err, os.ErrNotExist) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", id))
		return
	}
	writeError(w, http.StatusConflict, err.Error())
}

// writeJSONStatus marshals v with the indentation the rest of the API
// uses and the given status code.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}
