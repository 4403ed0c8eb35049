package server

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cryowire/internal/sim"
	"cryowire/internal/surrogate"
)

// latencyBuckets are the histogram upper bounds in seconds. The grid is
// logarithmic from sub-millisecond (cached hits) to half a minute
// (full-length experiment runs); +Inf is implicit.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// metrics aggregates the serving-side counters exposed on /metrics in
// Prometheus text format. Platform-cache and LRU numbers are pulled
// from their owners at render time, so this struct only tracks what
// the HTTP layer itself observes.
type metrics struct {
	start time.Time

	inflight      atomic.Int64
	coalesced     atomic.Uint64
	rejectedBusy  atomic.Uint64 // 429: admission semaphore full
	rejectedDrain atomic.Uint64 // 503: draining for shutdown

	mu       sync.Mutex
	requests map[string]uint64 // "route\x00code" → count
	buckets  []uint64          // cumulative-by-render histogram counts
	latSum   float64
	latCount uint64
}

func newMetrics() *metrics {
	return &metrics{
		start:    time.Now(),
		requests: make(map[string]uint64),
		buckets:  make([]uint64, len(latencyBuckets)+1),
	}
}

// observe records one finished request.
func (m *metrics) observe(route string, code int, dur time.Duration) {
	sec := dur.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, sec)
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s\x00%d", route, code)]++
	m.buckets[i]++
	m.latSum += sec
	m.latCount++
	m.mu.Unlock()
}

// meanLatency returns the average observed request duration in
// seconds (0 before any sample) — the basis of the admission 429's
// Retry-After hint.
func (m *metrics) meanLatency() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.latCount == 0 {
		return 0
	}
	return m.latSum / float64(m.latCount)
}

// platformStats is the derivation-cache view /metrics needs; the
// platform package's Stats method satisfies it via a closure.
type platformStats struct {
	Hits, Misses uint64
}

// renderProm writes the whole exposition in Prometheus text format.
// Series within a metric are sorted so scrapes are deterministic.
func (m *metrics) renderProm(lru lruStats, pf platformStats) string {
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatProm(v))
	}

	m.mu.Lock()
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "# HELP cryowire_http_requests_total Completed HTTP requests by route and status code.\n")
	fmt.Fprintf(&b, "# TYPE cryowire_http_requests_total counter\n")
	for _, k := range keys {
		route, code, _ := strings.Cut(k, "\x00")
		fmt.Fprintf(&b, "cryowire_http_requests_total{route=%q,code=%q} %d\n", route, code, m.requests[k])
	}
	fmt.Fprintf(&b, "# HELP cryowire_http_request_duration_seconds Request latency histogram.\n")
	fmt.Fprintf(&b, "# TYPE cryowire_http_request_duration_seconds histogram\n")
	cum := uint64(0)
	for i, le := range latencyBuckets {
		cum += m.buckets[i]
		fmt.Fprintf(&b, "cryowire_http_request_duration_seconds_bucket{le=%q} %d\n", formatProm(le), cum)
	}
	cum += m.buckets[len(latencyBuckets)]
	fmt.Fprintf(&b, "cryowire_http_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(&b, "cryowire_http_request_duration_seconds_sum %s\n", formatProm(m.latSum))
	fmt.Fprintf(&b, "cryowire_http_request_duration_seconds_count %d\n", m.latCount)
	m.mu.Unlock()

	gauge("cryowire_http_inflight", "Requests currently being served on the /v1 endpoints.", float64(m.inflight.Load()))
	counter("cryowire_http_rejected_busy_total", "Requests rejected with 429 because the admission semaphore was full.", m.rejectedBusy.Load())
	counter("cryowire_http_rejected_draining_total", "Requests rejected with 503 during shutdown drain.", m.rejectedDrain.Load())
	counter("cryowire_http_coalesced_total", "Requests that rode another request's in-flight computation.", m.coalesced.Load())

	counter("cryowire_response_cache_hits_total", "Responses served from the LRU response cache.", lru.Hits)
	counter("cryowire_response_cache_misses_total", "Response-cache lookups that had to compute.", lru.Misses)
	counter("cryowire_response_cache_evictions_total", "Responses evicted to stay within the cache bounds.", lru.Evictions)
	gauge("cryowire_response_cache_entries", "Responses currently held by the LRU cache.", float64(lru.Entries))
	gauge("cryowire_response_cache_bytes", "Body bytes currently held by the LRU cache.", float64(lru.Bytes))

	counter("cryowire_platform_cache_hits_total", "Model-derivation calls served from the shared platform cache.", pf.Hits)
	counter("cryowire_platform_cache_misses_total", "Model artifacts actually derived by the shared platform cache.", pf.Misses)

	bs := sim.ReadBatchStats()
	counter("cryowire_sim_batches_total", "Simulation runner calls that simulated at least one spec.", bs.Batches)
	counter("cryowire_sim_batch_cache_hits_total", "Simulation specs served by dedup instead of simulating.", bs.CacheHits)
	counter("cryowire_sim_batch_cache_misses_total", "Simulation specs actually simulated.", bs.CacheMisses)
	counter("cryowire_sim_batch_lane_failures_total", "Simulation specs that ended in a per-spec error.", bs.LaneFailures)

	sur := surrogate.ReadStats()
	counter("cryowire_surrogate_fits_total", "Surrogate models fitted from journals or in-run history.", sur.Fits)
	counter("cryowire_surrogate_predictions_total", "Surrogate predictions served to search strategies.", sur.Predictions)
	counter("cryowire_surrogate_sims_skipped_total", "Simulations skipped because the surrogate placed the point outside the predicted Pareto band.", sur.SimsSkipped)

	gauge("cryowire_uptime_seconds", "Seconds since the server started.", time.Since(m.start).Seconds())
	return b.String()
}

// formatProm renders a float the way Prometheus clients expect.
func formatProm(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
