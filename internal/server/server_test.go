package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cryowire/internal/experiments"
	"cryowire/internal/workload"
)

// quietLogger keeps test output readable.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do runs one request through the full middleware stack.
func do(t *testing.T, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestEndpointStatuses table-drives the routing, validation and error
// mapping of every endpoint.
func TestEndpointStatuses(t *testing.T) {
	s := newTestServer(t, Config{})
	s.ready.Store(true)
	h := s.Handler()
	cases := []struct {
		name, method, target, body string
		want                       int
		wantIn                     string // substring of the response body
	}{
		{"healthz", "GET", "/healthz", "", 200, `"status": "ok"`},
		{"healthz build info", "GET", "/healthz", "", 200, `"go": "go`},
		{"readyz ready", "GET", "/readyz", "", 200, "ready"},
		{"metrics", "GET", "/metrics", "", 200, "cryowire_http_requests_total"},
		{"list experiments", "GET", "/v1/experiments", "", 200, "\"fig22\""},
		{"unknown experiment", "POST", "/v1/experiments/fig999", "", 404, "unknown experiment"},
		{"experiment bad json", "POST", "/v1/experiments/fig22", "{", 400, "invalid JSON"},
		{"experiment unknown field", "POST", "/v1/experiments/fig22", `{"qwick":true}`, 400, "invalid JSON"},
		{"experiment trailing data", "POST", "/v1/experiments/fig22", `{"quick":true} {}`, 400, "trailing data"},
		{"experiment negative workers", "POST", "/v1/experiments/fig22", `{"workers":-1}`, 400, "workers"},
		{"experiment negative cycles", "POST", "/v1/experiments/fig22", `{"warmup_cycles":-5}`, 400, "cycle counts"},
		{"experiment wrong method", "GET", "/v1/experiments/fig22", "", 405, ""},
		{"simulate empty body", "POST", "/v1/simulate", "", 400, "design"},
		{"simulate unknown design", "POST", "/v1/simulate", `{"design":"nope","workload":"ferret"}`, 404, "unknown design"},
		{"simulate unknown workload", "POST", "/v1/simulate", `{"design":"CryoSP (77K, Mesh)","workload":"nope"}`, 404, ""},
		{"dse bad json", "POST", "/v1/dse", "{", 400, "invalid JSON"},
		{"dse unknown field", "POST", "/v1/dse", `{"strutegy":"grid"}`, 400, "invalid JSON"},
		{"dse retired range", "POST", "/v1/dse", `{"quick":true,"range_start":1,"range_end":3}`, 400, `unknown field \"range_start\"`},
		{"dse unknown strategy", "POST", "/v1/dse", `{"strategy":"annealing"}`, 400, "unknown strategy"},
		{"dse strategy list names surrogates", "POST", "/v1/dse", `{"strategy":"annealing"}`, 400, "surrogate-hillclimb, ei, screen"},
		{"dse prior without surrogate strategy", "POST", "/v1/dse", `{"strategy":"grid","prior":["a.jsonl"]}`, 400, "surrogate strategy"},
		{"dse margin without screen", "POST", "/v1/dse", `{"strategy":"ei","screen_margin":0.2}`, 400, "screen margin requires"},
		{"dse negative margin", "POST", "/v1/dse", `{"strategy":"screen","screen_margin":-0.5}`, 400, "screen margin must be"},
		{"dse negative budget", "POST", "/v1/dse", `{"budget":-1}`, 400, "budget"},
		{"dse unknown workload", "POST", "/v1/dse", `{"workloads":["nope"]}`, 404, ""},
		{"dse bad depth", "POST", "/v1/dse", `{"depths":[3]}`, 400, "derivable range"},
		{"dse over cap", "POST", "/v1/dse", dseOverCapBody(), 400, "server cap"},
		{"dse bad stage axis", "POST", "/v1/dse", `{"stage_temps_k":[0]}`, 400, "stage"},
		{"stage bad json", "POST", "/v1/stage", "{", 400, "invalid JSON"},
		{"stage unknown field", "POST", "/v1/stage", `{"qwick":true}`, 400, "invalid JSON"},
		{"stage negative workers", "POST", "/v1/stage", `{"workers":-1}`, 400, "workers"},
		{"stage negative cycles", "POST", "/v1/stage", `{"config":{"warmup_cycles":-1}}`, 400, "cycle counts"},
		{"stage unknown workload", "POST", "/v1/stage", `{"workload":"nope"}`, 404, ""},
		{"stage bad assignment", "POST", "/v1/stage", `{"assignments":[{"name":"hot","tier_k":400,"mem_k":300}]}`, 400, "above the 300 K host"},
		{"stage over cap", "POST", "/v1/stage", stageOverCapBody(), 400, "server cap"},
		{"stage wrong method", "GET", "/v1/stage", "", 405, ""},
		{"wire missing class", "GET", "/v1/wire/speedup", "", 400, "class is required"},
		{"wire bad length", "GET", "/v1/wire/speedup?class=local&length_mm=0", "", 400, "length_mm"},
		{"wire bad number", "GET", "/v1/wire/speedup?class=local&length_mm=x", "", 400, "not a number"},
		{"wire unknown class", "GET", "/v1/wire/speedup?class=warp&length_mm=1", "", 400, ""},
		{"wire ok", "GET", "/v1/wire/speedup?class=local&length_mm=0.5&temp_k=77", "", 200, "\"speedup\""},
		{"noc missing design", "GET", "/v1/noc/load-latency", "", 400, "design is required"},
		{"noc bad rates", "GET", "/v1/noc/load-latency?design=mesh&rates=a,b", "", 400, "not a number"},
		{"noc removed torus", "GET", "/v1/noc/load-latency?design=torus&rates=0.01", "", 400, "cryobus-2way"},
		{"noc removed ring", "GET", "/v1/noc/load-latency?design=ring&rates=0.01", "", 400, "unknown NoC design"},
		{"noc removed tornado", "GET", "/v1/noc/load-latency?design=mesh&pattern=tornado&rates=0.01", "", 400, "uniform"},
		{"noc NaN rate", "GET", "/v1/noc/load-latency?design=mesh&rates=NaN", "", 400, "(0, 1]"},
		{"noc infinite rate", "GET", "/v1/noc/load-latency?design=mesh&rates=0.01,Inf", "", 400, "(0, 1]"},
		{"noc zero rate", "GET", "/v1/noc/load-latency?design=mesh&rates=0", "", 400, "(0, 1]"},
		{"noc rate above one", "GET", "/v1/noc/load-latency?design=mesh&rates=1e300", "", 400, "(0, 1]"},
		{"temp sweep bad list", "GET", "/v1/temperature-sweep?temps_k=77,", "", 400, "not a number"},
		{"temp sweep ok", "GET", "/v1/temperature-sweep?temps_k=300,77", "", 200, "\"points\""},
		{"pprof off", "GET", "/debug/pprof/", "", 404, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, h, tc.method, tc.target, tc.body)
			if rec.Code != tc.want {
				t.Fatalf("%s %s: status = %d, want %d; body: %s", tc.method, tc.target, rec.Code, tc.want, rec.Body)
			}
			if tc.wantIn != "" && !strings.Contains(rec.Body.String(), tc.wantIn) {
				t.Fatalf("%s %s: body %q does not contain %q", tc.method, tc.target, rec.Body, tc.wantIn)
			}
		})
	}
}

// TestWireSpeedupExtremeTemperatureIs400: a temp_k the device model
// cannot price is the client's error, never a 5xx from encoding a NaN.
func TestWireSpeedupExtremeTemperatureIs400(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	for _, temp := range []string{"%2BInf", "1e308", "1e-300"} {
		for _, repeated := range []string{"false", "true"} {
			target := "/v1/wire/speedup?class=global&length_mm=1&temp_k=" + temp + "&repeated=" + repeated
			if rec := do(t, h, "GET", target, ""); rec.Code != http.StatusBadRequest {
				t.Errorf("GET %s: status = %d, want 400; body: %s", target, rec.Code, rec.Body)
			}
		}
	}
}

// TestReadyzBeforeServe: a freshly built server must not report ready.
func TestReadyzBeforeServe(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s.Handler(), "GET", "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before serve = %d, want 503", rec.Code)
	}
}

// TestExperimentJSONParity: the endpoint body must be byte-identical to
// what `cryowire fig22 -quick -json` prints (Report.JSON + newline).
func TestExperimentJSONParity(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	rec := do(t, h, "POST", "/v1/experiments/fig22", `{"quick":true}`)
	if rec.Code != 200 {
		t.Fatalf("status = %d, body: %s", rec.Code, rec.Body)
	}
	rep, err := experiments.Run("fig22", experiments.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := append(b, '\n')
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("endpoint body differs from CLI -json output:\nendpoint: %s\ncli: %s", rec.Body, want)
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	// The identical request must now be a cache hit with the same bytes.
	rec2 := do(t, h, "POST", "/v1/experiments/fig22", `{"quick":true}`)
	if got := rec2.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(rec2.Body.Bytes(), want) {
		t.Fatal("cached body differs from computed body")
	}
	// An equivalent spelling (reordered/default fields) shares the entry.
	rec3 := do(t, h, "POST", "/v1/experiments/fig22", `{"workers":0, "quick":true}`)
	if got := rec3.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("equivalent request X-Cache = %q, want hit", got)
	}
}

// TestExperimentCacheIgnoresWorkers: the worker count never changes a
// report's bytes, so a request that differs only in workers must be
// served from the entry the first request cached.
func TestExperimentCacheIgnoresWorkers(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	rec := do(t, h, "POST", "/v1/experiments/fig22", `{"quick":true}`)
	if rec.Code != 200 {
		t.Fatalf("status = %d, body: %s", rec.Code, rec.Body)
	}
	rec2 := do(t, h, "POST", "/v1/experiments/fig22", `{"quick":true,"workers":2}`)
	if rec2.Code != 200 {
		t.Fatalf("status = %d, body: %s", rec2.Code, rec2.Body)
	}
	if got := rec2.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("workers-only variant X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(rec2.Body.Bytes(), rec.Body.Bytes()) {
		t.Fatal("workers-only variant served different bytes")
	}
}

// countingRunner is an injectable experiment runner that counts real
// computations and can block until released.
type countingRunner struct {
	mu      sync.Mutex
	calls   int
	started chan struct{} // closed signals at least one call entered
	release chan struct{} // computation blocks until this closes
	ctxDone chan struct{} // closed when the compute context is canceled
	once    sync.Once
}

func (c *countingRunner) run(ctx context.Context, id string, _ experiments.Options) (*experiments.Report, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	c.once.Do(func() { close(c.started) })
	if c.release != nil {
		select {
		case <-c.release:
		case <-ctx.Done():
			if c.ctxDone != nil {
				close(c.ctxDone)
			}
			return nil, ctx.Err()
		}
	}
	return &experiments.Report{ID: id, Title: "stub"}, nil
}

func (c *countingRunner) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// TestCoalescing: N concurrent identical requests must trigger exactly
// one computation, and all N must get the same 200 body.
func TestCoalescing(t *testing.T) {
	const n = 8
	cr := &countingRunner{started: make(chan struct{}), release: make(chan struct{})}
	s := newTestServer(t, Config{MaxInflight: n + 2})
	s.runExperiment = cr.run
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/experiments/fig22", "application/json", strings.NewReader(`{"quick":true}`))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// Release the single computation once it is underway; the remaining
	// requests have either joined the flight or will hit the LRU.
	<-cr.started
	time.Sleep(50 * time.Millisecond)
	close(cr.release)
	wg.Wait()

	if got := cr.count(); got != 1 {
		t.Fatalf("computations = %d, want 1 (coalescing failed)", got)
	}
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs", i)
		}
	}
}

// TestLRUEviction exercises both cache bounds directly.
func TestLRUEviction(t *testing.T) {
	c := newLRU(3, 100)
	for i := 0; i < 5; i++ {
		c.Add(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("x"), 10))
	}
	st := c.Stats()
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 should have been evicted")
	}
	if _, ok := c.Get("k4"); !ok {
		t.Fatal("k4 should be resident")
	}
	// Byte bound: a 60-byte body forces older entries out.
	c.Add("big", bytes.Repeat([]byte("y"), 60))
	if st := c.Stats(); st.Bytes > 100 {
		t.Fatalf("bytes = %d, exceeds bound 100", st.Bytes)
	}
	// A body over the whole budget must be refused, not evict the world.
	c.Add("huge", bytes.Repeat([]byte("z"), 200))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized body must not be cached")
	}
	// Get promotes: after touching the oldest entry it must survive the
	// next eviction.
	c2 := newLRU(2, 0)
	c2.Add("a", []byte("1"))
	c2.Add("b", []byte("2"))
	c2.Get("a")
	c2.Add("c", []byte("3"))
	if _, ok := c2.Get("a"); !ok {
		t.Fatal("promoted entry was evicted")
	}
	if _, ok := c2.Get("b"); ok {
		t.Fatal("LRU entry should have been evicted")
	}
}

// TestAdmissionControl: with MaxInflight=1, a second concurrent request
// must be rejected with 429 and a Retry-After header.
func TestAdmissionControl(t *testing.T) {
	cr := &countingRunner{started: make(chan struct{}), release: make(chan struct{})}
	s := newTestServer(t, Config{MaxInflight: 1})
	s.runExperiment = cr.run
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/experiments/fig22", "application/json", nil)
		if err != nil {
			done <- -1
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		done <- resp.StatusCode
	}()
	<-cr.started

	resp, err := http.Post(ts.URL+"/v1/experiments/fig3", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	close(cr.release)
	if code := <-done; code != 200 {
		t.Fatalf("first request status = %d, want 200", code)
	}
	// /metrics must have counted the rejection.
	rec := do(t, s.Handler(), "GET", "/metrics", "")
	if !strings.Contains(rec.Body.String(), "cryowire_http_rejected_busy_total 1") {
		t.Fatal("rejected_busy_total not reported on /metrics")
	}
}

// TestCancellationStopsComputation: when the only client canceling an
// in-flight request goes away, the compute context must be canceled so
// the worker fan-out underneath stops.
func TestCancellationStopsComputation(t *testing.T) {
	cr := &countingRunner{
		started: make(chan struct{}),
		release: make(chan struct{}), // never closed: only cancellation ends the run
		ctxDone: make(chan struct{}),
	}
	s := newTestServer(t, Config{})
	s.runExperiment = cr.run
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/experiments/fig22", nil)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	<-cr.started
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("expected client-side cancellation error")
	}
	select {
	case <-cr.ctxDone:
		// The abandoned computation observed cancellation.
	case <-time.After(5 * time.Second):
		t.Fatal("compute context was not canceled after the last client left")
	}
}

// TestGracefulShutdown: canceling the serve context must drain the
// in-flight request to a clean 200 and refuse new work with 503.
func TestGracefulShutdown(t *testing.T) {
	cr := &countingRunner{started: make(chan struct{}), release: make(chan struct{})}
	s := newTestServer(t, Config{RequestTimeout: 30 * time.Second})
	s.runExperiment = cr.run

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	waitReady(t, url)

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/experiments/fig22", "application/json", nil)
		if err != nil {
			inflight <- -1
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		inflight <- resp.StatusCode
	}()
	<-cr.started

	cancel() // begin graceful shutdown while the request is in flight
	// Draining must be observable before the slow request completes.
	waitFor(t, 5*time.Second, func() bool { return s.draining.Load() })
	close(cr.release)
	if code := <-inflight; code != 200 {
		t.Fatalf("in-flight request during drain: status %d, want 200", code)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
	// The handler now refuses new work.
	rec := do(t, s.Handler(), "POST", "/v1/experiments/fig22", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request status = %d, want 503", rec.Code)
	}
}

func waitReady(t *testing.T, url string) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool {
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == 200
	})
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met before timeout")
}

// TestSimulateEndpoint runs a tiny real simulation end to end.
func TestSimulateEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	d := serveDesigns()[0]
	if _, err := workload.ByName("ferret"); err != nil {
		t.Skipf("workload ferret unavailable: %v", err)
	}
	body := fmt.Sprintf(`{"design":%q,"workload":"ferret","config":{"warmup_cycles":200,"measure_cycles":500,"seed":7}}`, d.Name)
	rec := do(t, s.Handler(), "POST", "/v1/simulate", body)
	if rec.Code != 200 {
		t.Fatalf("status = %d, body: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "\"IPC\"") {
		t.Fatalf("simulate body missing IPC: %s", rec.Body)
	}
	// Same request again: must be a cache hit with identical bytes.
	rec2 := do(t, s.Handler(), "POST", "/v1/simulate", body)
	if got := rec2.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat simulate X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("cached simulate body differs")
	}
}

// TestSimulateHugeCyclesTimesOut checks that a simulation whose cycle
// counts are far past what memory could hold per cycle is bounded by
// RequestTimeout like any long run: the server answers 503 and keeps
// serving, rather than dying on an allocation sized by the request.
func TestSimulateHugeCyclesTimesOut(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: 200 * time.Millisecond})
	d := serveDesigns()[0]
	for _, cycles := range []string{"4611686018427387904", "10000000000"} {
		body := fmt.Sprintf(`{"design":%q,"workload":"ferret","config":{"measure_cycles":%s}}`, d.Name, cycles)
		if rec := do(t, s.Handler(), "POST", "/v1/simulate", body); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("measure_cycles %s: status = %d, body: %s", cycles, rec.Code, rec.Body)
		}
	}
	if rec := do(t, s.Handler(), "GET", "/healthz", ""); rec.Code != 200 {
		t.Fatalf("healthz after huge runs = %d", rec.Code)
	}
}

// TestMetricsRendering checks the Prometheus exposition shape.
func TestMetricsRendering(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	do(t, h, "GET", "/v1/experiments", "")
	rec := do(t, h, "GET", "/metrics", "")
	body := rec.Body.String()
	for _, want := range []string{
		`cryowire_http_requests_total{route="/v1/experiments",code="200"} 1`,
		"cryowire_http_request_duration_seconds_bucket{le=\"+Inf\"}",
		"cryowire_http_request_duration_seconds_count",
		"cryowire_response_cache_entries",
		"cryowire_http_inflight 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestFlightGroupLeaderDisconnect: a leader abandoning its request must
// not fail a follower riding the same computation.
func TestFlightGroupLeaderDisconnect(t *testing.T) {
	g := newFlightGroup(context.Background(), 0)
	entered := make(chan struct{})
	release := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		close(entered)
		select {
		case <-release:
			return []byte("result"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(leaderCtx, "k", fn)
		leaderErr <- err
	}()
	<-entered

	followerBody := make(chan []byte, 1)
	go func() {
		body, shared, err := g.Do(context.Background(), "k", fn)
		if err != nil || !shared {
			t.Errorf("follower: shared=%v err=%v", shared, err)
		}
		followerBody <- body
	}()
	// Give the follower a moment to join, then kill the leader.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()
	if err := <-leaderErr; err == nil {
		t.Fatal("leader should observe its cancellation")
	}
	close(release)
	if body := <-followerBody; string(body) != "result" {
		t.Fatalf("follower body = %q, want %q", body, "result")
	}
}

// TestDSEOverCapHint pins the candidate cap's error body: it must
// point at the local CLI and its parallel and durable options.
func TestDSEOverCapHint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s.Handler(), "POST", "/v1/dse", dseOverCapBody())
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("over-cap status = %d: %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	for _, hint := range []string{"cryowire dse", "-workers", "-journal", "-resume"} {
		if !strings.Contains(body, hint) {
			t.Errorf("over-cap body missing hint %q: %s", hint, body)
		}
	}
	if strings.Contains(body, "jobs") {
		t.Errorf("over-cap body points at the retired jobs API: %s", body)
	}
}

// TestRetiredJobsSurface pins the removal of the async DSE jobs API:
// every one of its routes answers 404, and its checkpoint_every field
// is an unknown field on /v1/dse.
func TestRetiredJobsSurface(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, tc := range []struct{ method, target string }{
		{"POST", "/v1/dse/jobs"},
		{"GET", "/v1/dse/jobs"},
		{"GET", "/v1/dse/jobs/x"},
		{"GET", "/v1/dse/jobs/x/result"},
		{"GET", "/v1/dse/jobs/x/journal"},
		{"GET", "/v1/dse/jobs/x/events"},
		{"DELETE", "/v1/dse/jobs/x"},
	} {
		body := ""
		if tc.method == "POST" {
			body = `{"quick":true}`
		}
		if rec := do(t, h, tc.method, tc.target, body); rec.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404: %s", tc.method, tc.target, rec.Code, rec.Body)
		}
	}
	rec := do(t, h, "POST", "/v1/dse", `{"quick":true,"checkpoint_every":1}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown field") {
		t.Errorf("checkpoint_every on /v1/dse = %d %s, want 400 unknown field", rec.Code, rec.Body)
	}
}

// Compile-time check that the injectable runner matches the real one.
var _ func(context.Context, string, experiments.Options) (*experiments.Report, error) = experiments.RunCtx

// dseOverCapBody builds a /v1/dse request whose space exceeds the
// server's evaluation cap (the full default space is 576 points, so it
// takes a long temperature axis to blow past 4096).
func dseOverCapBody() string {
	var b strings.Builder
	b.WriteString(`{"temps_k":[`)
	for i := 0; i < 30; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", 77+i)
	}
	b.WriteString(`]}`)
	return b.String()
}
