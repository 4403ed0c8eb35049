package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cryowire/internal/jobs"
)

// newJobsServer builds a server with the async job API enabled.
func newJobsServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.JobsDir == "" {
		cfg.JobsDir = filepath.Join(t.TempDir(), "jobs")
	}
	s := newTestServer(t, cfg)
	t.Cleanup(func() {
		// Drain before TempDir removal: a job still running at test end
		// would race its journal/state writes against the cleanup.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.jobs.Drain(ctx); err != nil {
			t.Errorf("drain at cleanup: %v", err)
		}
		s.baseCancel()
	})
	return s
}

// tinyJobBody is a 4-candidate quick search that finishes in well
// under a second.
func tinyJobBody() string {
	return `{"quick": true, "budget": 4, "workloads": ["x264"],
		"config": {"warmup_cycles": 300, "measure_cycles": 900}}`
}

// pollJob polls until the job reaches want (or any terminal state).
func pollJob(t *testing.T, h http.Handler, id string, want jobs.Status) jobs.State {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec := do(t, h, "GET", "/v1/dse/jobs/"+id, "")
		if rec.Code != 200 {
			t.Fatalf("poll status %d: %s", rec.Code, rec.Body)
		}
		var st jobs.State
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == want {
			return st
		}
		if st.Status.Terminal() {
			t.Fatalf("job %s landed on %s (error %q), want %s", id, st.Status, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out polling job %s for %s", id, want)
	return jobs.State{}
}

// TestJobLifecycle: submit → 202 + Location → poll to done → result is
// byte-identical to the synchronous /v1/dse response for the same
// request.
func TestJobLifecycle(t *testing.T) {
	s := newJobsServer(t, Config{})
	h := s.Handler()

	rec := do(t, h, "POST", "/v1/dse/jobs", tinyJobBody())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body)
	}
	var st jobs.State
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if loc := rec.Header().Get("Location"); loc != "/v1/dse/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}
	if st.Status != jobs.StatusPending && st.Status != jobs.StatusRunning {
		t.Fatalf("initial status = %s", st.Status)
	}

	// Result before done is a 409, not a 404 or empty body.
	if rec := do(t, h, "GET", "/v1/dse/jobs/"+st.ID+"/result", ""); rec.Code != http.StatusConflict && rec.Code != http.StatusOK {
		t.Fatalf("early result status %d: %s", rec.Code, rec.Body)
	}

	fin := pollJob(t, h, st.ID, jobs.StatusDone)
	if fin.Evaluated != 4 {
		t.Fatalf("evaluated = %d, want 4", fin.Evaluated)
	}
	got := do(t, h, "GET", "/v1/dse/jobs/"+st.ID+"/result", "")
	if got.Code != 200 {
		t.Fatalf("result status %d: %s", got.Code, got.Body)
	}
	sync := do(t, h, "POST", "/v1/dse", tinyJobBody())
	if sync.Code != 200 {
		t.Fatalf("sync dse status %d: %s", sync.Code, sync.Body)
	}
	if got.Body.String() != sync.Body.String() {
		t.Fatalf("async result differs from sync response:\nasync: %s\nsync:  %s", got.Body, sync.Body)
	}

	// The job shows up in the listing.
	list := do(t, h, "GET", "/v1/dse/jobs", "")
	if list.Code != 200 || !strings.Contains(list.Body.String(), st.ID) {
		t.Fatalf("list status %d body %s", list.Code, list.Body)
	}

	// Terminal DELETE removes it.
	if rec := do(t, h, "DELETE", "/v1/dse/jobs/"+st.ID, ""); rec.Code != http.StatusNoContent {
		t.Fatalf("delete status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "GET", "/v1/dse/jobs/"+st.ID, ""); rec.Code != http.StatusNotFound {
		t.Fatalf("get after delete = %d", rec.Code)
	}
}

// TestJobNoCap: a request over the synchronous candidate cap is
// rejected on /v1/dse but accepted on the async API, which journals
// instead of capping.
func TestJobNoCap(t *testing.T) {
	s := newJobsServer(t, Config{})
	h := s.Handler()
	// 20 temps x 2 modes x 4 depths x 2 nets x 13 workloads = 4160
	// candidates, over the synchronous cap of 4096.
	body := `{"quick": true, "budget": 6000,
		"temps_k": [300, 290, 280, 270, 260, 250, 240, 230, 220, 210,
		            200, 190, 180, 170, 160, 150, 140, 120, 100, 77],
		"depths": [14, 15, 16, 17],
		"workloads": ["blackscholes", "bodytrack", "canneal", "dedup",
		              "facesim", "ferret", "fluidanimate", "freqmine",
		              "raytrace", "streamcluster", "swaptions", "vips", "x264"],
		"config": {"warmup_cycles": 100, "measure_cycles": 200}}`

	rec := do(t, h, "POST", "/v1/dse", body)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "server cap") {
		t.Fatalf("sync over-cap = %d: %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "POST", "/v1/dse/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async over-cap = %d: %s", rec.Code, rec.Body)
	}
	var st jobs.State
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Total <= dseSpaceBudget {
		t.Fatalf("job total = %d, want > %d", st.Total, dseSpaceBudget)
	}
	// Don't actually evaluate thousands of points in a unit test.
	if rec := do(t, h, "DELETE", "/v1/dse/jobs/"+st.ID, ""); rec.Code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", rec.Code, rec.Body)
	}
}

// TestJobRateLimit: the per-client token bucket rejects the burst
// overflow with an honest Retry-After derived from the refill rate.
func TestJobRateLimit(t *testing.T) {
	s := newJobsServer(t, Config{JobRateLimit: 0.1, JobRateBurst: 1})
	h := s.Handler()

	first := do(t, h, "POST", "/v1/dse/jobs", tinyJobBody())
	if first.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", first.Code, first.Body)
	}
	second := do(t, h, "POST", "/v1/dse/jobs", tinyJobBody())
	if second.Code != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", second.Code)
	}
	ra, err := strconv.Atoi(second.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not a number", second.Header().Get("Retry-After"))
	}
	// One token at 0.1/s takes ~10s to accumulate; "1" would be a lie.
	if ra < 5 || ra > 11 {
		t.Fatalf("Retry-After = %d, want ~10 (honest refill time)", ra)
	}
	if s.metrics.rejectedRate.Load() != 1 {
		t.Fatalf("rejectedRate = %d", s.metrics.rejectedRate.Load())
	}
}

// TestJobEvents: the SSE stream carries boot-scoped event ids, replays
// nothing the client already saw, and treats ids from another process
// incarnation as stale.
func TestJobEvents(t *testing.T) {
	s := newJobsServer(t, Config{})
	h := s.Handler()

	rec := do(t, h, "POST", "/v1/dse/jobs", tinyJobBody())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	var st jobs.State
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	pollJob(t, h, st.ID, jobs.StatusDone)

	// A fresh stream on a finished job yields exactly one snapshot.
	ev := do(t, h, "GET", "/v1/dse/jobs/"+st.ID+"/events", "")
	body := ev.Body.String()
	if ev.Code != 200 || ev.Header().Get("Content-Type") != "text/event-stream" {
		t.Fatalf("events = %d %q", ev.Code, ev.Header().Get("Content-Type"))
	}
	if strings.Count(body, "event: state") != 1 || !strings.Contains(body, `"status":"done"`) {
		t.Fatalf("stream body:\n%s", body)
	}
	var eventID string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "id: ") {
			eventID = strings.TrimPrefix(line, "id: ")
		}
	}
	wantPrefix := s.jobs.BootID() + "-"
	if !strings.HasPrefix(eventID, wantPrefix) {
		t.Fatalf("event id %q lacks boot prefix %q", eventID, wantPrefix)
	}

	// Reconnecting with that id replays nothing (the client is current).
	req := func(lastID string) string {
		r := httptest.NewRequest("GET", "/v1/dse/jobs/"+st.ID+"/events", nil)
		r.Header.Set("Last-Event-ID", lastID)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, r)
		return rr.Body.String()
	}
	if got := req(eventID); strings.Contains(got, "event: state") {
		t.Fatalf("current client got a replay:\n%s", got)
	}
	// An id from a previous incarnation is stale: full snapshot again.
	if got := req("deadbeefdeadbeef-99"); !strings.Contains(got, `"status":"done"`) {
		t.Fatalf("stale client got no snapshot:\n%s", got)
	}
}

// TestJobsDisabled: without -jobs-dir the API 404s with a hint.
func TestJobsDisabled(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, tc := range []struct{ method, target string }{
		{"POST", "/v1/dse/jobs"},
		{"GET", "/v1/dse/jobs"},
		{"GET", "/v1/dse/jobs/0123456789abcdef"},
		{"DELETE", "/v1/dse/jobs/0123456789abcdef"},
	} {
		rec := do(t, h, tc.method, tc.target, "")
		if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "jobs-dir") {
			t.Fatalf("%s %s = %d: %s", tc.method, tc.target, rec.Code, rec.Body)
		}
	}
}

// TestJobJournal: the journal endpoint mirrors a done job's checkpoint
// as NDJSON — a header line plus one entry per evaluated point — and
// 404s on an unknown job.
func TestJobJournal(t *testing.T) {
	s := newJobsServer(t, Config{})
	h := s.Handler()

	rec := do(t, h, "POST", "/v1/dse/jobs", tinyJobBody())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body)
	}
	var st jobs.State
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	fin := pollJob(t, h, st.ID, jobs.StatusDone)

	journal := do(t, h, "GET", "/v1/dse/jobs/"+st.ID+"/journal", "")
	if journal.Code != 200 || !strings.Contains(journal.Body.String(), "cryowire-dse-journal") {
		t.Fatalf("journal status %d body %q", journal.Code, journal.Body)
	}
	if ct := journal.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("journal Content-Type = %q", ct)
	}
	if lines := strings.Count(journal.Body.String(), "\n"); lines != 1+fin.Evaluated {
		t.Fatalf("journal has %d lines, want a header plus %d entries", lines, fin.Evaluated)
	}
	if rec := do(t, h, "GET", "/v1/dse/jobs/ffffffffffffffff/journal", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown-job journal = %d", rec.Code)
	}
}

// TestJobJournalDisabled: without -jobs-dir the journal endpoint 404s
// with the same hint as the rest of the async API.
func TestJobJournalDisabled(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s.Handler(), "GET", "/v1/dse/jobs/0123456789abcdef/journal", "")
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "jobs-dir") {
		t.Fatalf("journal with jobs disabled = %d: %s", rec.Code, rec.Body)
	}
}

// TestDSEOverCapHint pins the synchronous cap's error body: it must
// point at the async jobs API and the local CLI.
func TestDSEOverCapHint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	rec := do(t, h, "POST", "/v1/dse", dseOverCapBody())
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("over-cap status = %d: %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	for _, hint := range []string{"POST /v1/dse/jobs", "cryowire dse", "-workers"} {
		if !strings.Contains(body, hint) {
			t.Errorf("over-cap body missing hint %q: %s", hint, body)
		}
	}
}

// TestJobMetrics: /metrics exposes the job counters once enabled.
func TestJobMetrics(t *testing.T) {
	s := newJobsServer(t, Config{})
	h := s.Handler()
	rec := do(t, h, "POST", "/v1/dse/jobs", tinyJobBody())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	var st jobs.State
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	pollJob(t, h, st.ID, jobs.StatusDone)
	m := do(t, h, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		"cryowire_jobs_submitted_total 1",
		"cryowire_jobs_completed_total 1",
		`cryowire_jobs{status="done"} 1`,
		"cryowire_http_rate_limited_total 0",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, m)
		}
	}
}
