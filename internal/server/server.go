// Package server is the production HTTP service layer over the
// CryoWire model stack: a JSON API exposing the experiment registry,
// the full-system simulator and the facade sweeps, built for sustained
// traffic rather than one-shot CLI runs.
//
// The serving pipeline, outermost first:
//
//	logging → admission (bounded semaphore, 429/503) → response LRU →
//	singleflight coalescing → context-canceled model computation
//
// Identical hot queries are answered from the byte-exact LRU response
// cache; concurrent identical misses collapse into one derivation via
// singleflight; everything else runs under a per-request deadline whose
// cancellation reaches all the way into the cycle loops (sim.Run polls
// its context) and the worker pools (par.ForCtx stops dispatching), so
// an abandoned request stops burning CPU. /healthz, /readyz and
// /metrics make the server operable; shutdown drains in-flight work.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"cryowire/internal/dse"
	"cryowire/internal/experiments"
	"cryowire/internal/platform"
	"cryowire/internal/sim"
	"cryowire/internal/stage"
	"cryowire/internal/workload"
)

// Config tunes the service layer. The zero value serves on :8080 with
// production-shaped defaults.
type Config struct {
	// Addr is the listen address (default ":8080"). Port 0 picks a free
	// port; Addr reports the bound address after ListenAndServe.
	Addr string
	// MaxInflight bounds concurrently admitted /v1 requests; excess
	// requests get 429 immediately instead of queueing unboundedly.
	// Default: 2×GOMAXPROCS.
	MaxInflight int
	// CacheEntries and CacheBytes bound the LRU response cache
	// (defaults 512 entries / 64 MiB); ≤ 0 keeps the default,
	// CacheEntries < 0 disables the cache.
	CacheEntries int
	CacheBytes   int64
	// RequestTimeout is the per-computation deadline (default 10 min —
	// full-length experiments are minutes of CPU). Requests past it get
	// 503 with a timeout error.
	RequestTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Logger receives one structured line per request; nil uses
	// slog.Default.
	Logger *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the HTTP service. Construct with New, serve with
// ListenAndServe (or mount Handler on your own listener), stop with
// Shutdown.
type Server struct {
	cfg     Config
	log     *slog.Logger
	cache   *lru
	flights *flightGroup
	metrics *metrics
	sem     chan struct{}

	baseCtx    context.Context
	baseCancel context.CancelFunc

	ready    atomic.Bool
	draining atomic.Bool

	httpSrv *http.Server

	// Model entry points, injectable so tests can count/stall/observe
	// computations without running real physics.
	runExperiment func(ctx context.Context, id string, opt experiments.Options) (*experiments.Report, error)
	runSimulate   func(ctx context.Context, d sim.Design, w workload.Profile, cfg sim.Config) (sim.Result, error)
	runDSE        func(ctx context.Context, cfg dse.Config) (*dse.Result, error)
	runStage      func(ctx context.Context, assigns []stage.Assignment, opt stage.SweepOptions) (*stage.SweepResult, error)
}

// New builds a server. The returned server is not yet ready (readyz
// reports 503) until ListenAndServe/Serve starts accepting.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        cfg.Logger,
		cache:      newLRU(cfg.CacheEntries, cfg.CacheBytes),
		metrics:    newMetrics(),
		sem:        make(chan struct{}, cfg.MaxInflight),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
	}
	s.flights = newFlightGroup(baseCtx, cfg.RequestTimeout)
	s.runExperiment = experiments.RunCtx
	s.runDSE = dse.Run
	s.runStage = stage.Sweep
	s.runSimulate = func(ctx context.Context, d sim.Design, w workload.Profile, cfg sim.Config) (sim.Result, error) {
		sys, err := sim.New(d, w, cfg.WithContext(ctx))
		if err != nil {
			return sim.Result{}, err
		}
		return sys.Run()
	}
	return s, nil
}

// platformStats snapshots the shared derivation cache for /metrics.
func (s *Server) platformStats() platformStats {
	st := platform.Default().Stats()
	return platformStats{Hits: st.Hits, Misses: st.Misses}
}

// Handler returns the fully wired HTTP handler (also usable under
// httptest without a real listener).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /v1/experiments", s.admit(http.HandlerFunc(s.handleListExperiments)))
	mux.Handle("POST /v1/experiments/{id}", s.admit(http.HandlerFunc(s.handleExperiment)))
	mux.Handle("POST /v1/simulate", s.admit(http.HandlerFunc(s.handleSimulate)))
	mux.Handle("POST /v1/dse", s.admit(http.HandlerFunc(s.handleDSE)))
	mux.Handle("POST /v1/stage", s.admit(http.HandlerFunc(s.handleStage)))
	mux.Handle("GET /v1/wire/speedup", s.admit(http.HandlerFunc(s.handleWireSpeedup)))
	mux.Handle("GET /v1/noc/load-latency", s.admit(http.HandlerFunc(s.handleNoCLoadLatency)))
	mux.Handle("GET /v1/temperature-sweep", s.admit(http.HandlerFunc(s.handleTemperatureSweep)))
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.logged(mux)
}

// admit is the admission-control middleware: a bounded semaphore with
// immediate 429 on saturation and 503 while draining — heavy load
// degrades into fast, honest rejections instead of an unbounded queue.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.metrics.rejectedDrain.Add(1)
			writeError(w, http.StatusServiceUnavailable, "server is draining for shutdown")
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.metrics.rejectedBusy.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("server at capacity (%d requests in flight)", cap(s.sem)))
			return
		}
		s.metrics.inflight.Add(1)
		defer func() {
			s.metrics.inflight.Add(-1)
			<-s.sem
		}()
		next.ServeHTTP(w, r)
	})
}

// retryAfterHint derives the Retry-After seconds for a 429 at the
// admission semaphore from observed request latency: when every slot
// is busy, the soonest one frees after roughly one mean request
// duration. Clamped to [1s, 60s]; before any latency samples exist it
// reports the floor.
func (s *Server) retryAfterHint() int {
	mean := s.metrics.meanLatency()
	sec := int(math.Ceil(mean))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// statusRecorder captures the response status and size for logging and
// metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

// logged is the structured request-logging middleware; it also feeds
// the request counters and the latency histogram.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(sr, r)
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		dur := time.Since(start)
		route := r.URL.Path
		s.metrics.observe(route, sr.status, dur)
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", route),
			slog.Int("status", sr.status),
			slog.Duration("duration", dur),
			slog.Int64("bytes", sr.bytes),
			slog.String("cache", sr.Header().Get("X-Cache")),
		)
	})
}

// ListenAndServe binds cfg.Addr and serves until ctx is canceled, then
// drains gracefully. It returns nil after a clean drain.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	return s.Serve(ctx, ln)
}

// Serve accepts on ln until ctx is canceled, then shuts down
// gracefully: the listener closes, readyz flips to 503, in-flight
// requests run to completion (bounded by RequestTimeout), new requests
// get 503.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return s.baseCtx },
	}
	s.ready.Store(true)
	s.log.Info("listening", "addr", ln.Addr().String())
	errCh := make(chan error, 1)
	go func() { errCh <- s.httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		s.ready.Store(false)
		return err
	case <-ctx.Done():
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		defer cancel()
		return s.Shutdown(drainCtx)
	}
}

// Shutdown drains the server: readiness drops, new work is rejected
// with 503, in-flight requests finish (until ctx expires), and finally
// the base context is canceled so any orphaned computation stops.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.draining.Store(true)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	s.baseCancel()
	s.log.Info("drained", "err", errString(err))
	return err
}

// errString renders an error for a log attribute without nil panics.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// apiError carries an HTTP status through the compute path.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// badRequest and notFound build typed errors for the handlers.
func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &apiError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// writeError emits the uniform JSON error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", msg)
}

// errorStatus maps a compute error to its HTTP status: typed apiErrors
// keep theirs, timeouts become 503, everything else 500.
func errorStatus(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
