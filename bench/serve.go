package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strconv"
	"time"

	"cryowire/internal/experiments"
)

// serveRate is the offered load of serve-mixed, in requests per second.
// The repository holds no recorded traffic to take a rate from, so this
// is an unverified assumption: a load the reference host serves with
// its tail far under latencyLimit.
const serveRate = 150

// latencyLimit is serve-mixed's limit on its tail latency.
const latencyLimit = 250 * time.Millisecond

// serveSectionSeconds is how long the serve layer probe offers load.
const serveSectionSeconds = 6

// serveMixed is the HTTP service under an open-loop stream of the
// requests the repository documents a client making: the only workload
// through request decoding, admission, the LRU, singleflight and JSON
// encoding. One operation is a request, timed from when it was due; the
// work is completed requests.
var serveMixed = &workload{
	name:         "serve-mixed",
	tracedPasses: 2,
	open:         openServe,
	section:      serveSection,
}

// Request classes of the mix.
const (
	// classHot is a documented request sent as documented: an LRU hit
	// once warm, or an uncached operational endpoint.
	classHot = "hot"
	// classWireMiss and classSimMiss are the documented wire and
	// simulate requests with their parameter asked anew: a repeater
	// solve and a full-length simulation each.
	classWireMiss = "wire_miss"
	classSimMiss  = "sim_miss"
)

// The documented POST /v1/simulate and GET /v1/wire/speedup requests
// (README.md, "Serving"); the mix varies the seed of the one and the
// length of the other.
const (
	simDesign  = "CryoSP (77K, CryoBus)"
	simBodyFmt = `{"design":"CryoSP (77K, CryoBus)","workload":"ferret","config":{"warmup_cycles":4000,"measure_cycles":16000,"seed":%d}}`
	wireClass  = "global"
	wirePath   = "/v1/wire/speedup?class=global&length_mm=%s&temp_k=77&repeated=true"
)

// docRequest is one request the repository documents a client making.
type docRequest struct {
	method, path string
	body         string
	// check validates a 200 response body.
	check func(s *serveSession, body []byte) error
	// varied, when set, builds the request with its parameter asked
	// anew.
	varied func(s *serveSession) request
}

// documented are the requests of the README's "Serving" and DSE
// examples and of scripts/serve_smoke.sh, verbatim. The asynchronous
// job API is left out: it needs a jobs directory and answers by polling.
var documented = []docRequest{
	{method: http.MethodGet, path: "/healthz", check: checkHealthz},
	{method: http.MethodGet, path: "/readyz", check: func(_ *serveSession, b []byte) error {
		if string(b) != "ready\n" {
			return fmt.Errorf("/readyz answered %q", b)
		}
		return nil
	}},
	{method: http.MethodGet, path: "/metrics", check: func(_ *serveSession, b []byte) error {
		if !bytes.Contains(b, []byte("cryowire_platform_cache_misses_total")) {
			return fmt.Errorf("/metrics has no platform cache series")
		}
		return nil
	}},
	{method: http.MethodGet, path: "/v1/experiments", check: checkRegistry},
	{method: http.MethodPost, path: "/v1/experiments/fig23", body: `{"quick":true}`, check: cliBytes("fig23")},
	{method: http.MethodPost, path: "/v1/experiments/fig22", body: `{"quick":true}`, check: cliBytes("fig22")},
	{
		method: http.MethodPost, path: "/v1/simulate",
		body: fmt.Sprintf(simBodyFmt, 1), check: checkSimulate, varied: variedSimulate,
	},
	{method: http.MethodGet, path: fmt.Sprintf(wirePath, "5"), check: checkWire, varied: variedWire},
	{method: http.MethodGet, path: "/v1/noc/load-latency?design=cryobus&pattern=uniform&temp_k=77", check: points(6)},
	{method: http.MethodGet, path: "/v1/temperature-sweep?temps_k=300,200,100,77", check: points(4)},
	{method: http.MethodPost, path: "/v1/stage", body: `{"quick":true}`, check: validJSON},
	{method: http.MethodPost, path: "/v1/dse", body: `{"quick":true,"strategy":"random","budget":8,"seed":7}`, check: validJSON},
	{method: http.MethodPost, path: "/v1/dse", body: `{"quick":true,"budget":4,"strategy":"random","seed":7}`, check: validJSON},
}

type serveSession struct {
	r   *runner
	e   *env
	rng *rand.Rand
	// simMisses numbers the varied simulate requests so far, so each
	// asks a seed not asked before.
	simMisses int
	// passes counts the passes made; the first fills the server's
	// caches, and its latencies are not held to latencyLimit.
	passes int
	// cli holds what `cryowire -quick -json <id>` prints for the
	// experiments the mix requests; computed on the first pass, outside
	// the timed passes.
	cli map[string][]byte
	// last holds the latest pass's plan and outcomes for the layer probe.
	last     []request
	lastOuts []outcome
}

func openServe(r *runner, e *env) (session, error) {
	return &serveSession{r: r, e: e, rng: rand.New(rand.NewSource(r.seed))}, nil
}

func (s *serveSession) close() {}

func (s *serveSession) expectCLI() error {
	if s.cli != nil {
		return nil
	}
	s.cli = make(map[string][]byte)
	for _, id := range []string{"fig22", "fig23"} {
		rep, err := experiments.Run(id, experiments.QuickOptions())
		if err != nil {
			return err
		}
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		s.cli[id] = append(b, '\n')
	}
	return nil
}

// plan draws the next seconds of the mix. Each request is one of the
// documented requests, all equally likely; a simulate or wire request
// keeps its documented parameters on half its draws and asks a new seed
// or length on the other half. The weights are unverified assumptions,
// as the rate is: the repository documents which requests clients make,
// not how often.
func (s *serveSession) plan(seconds float64) []request {
	out := make([]request, int(seconds*serveRate))
	for i := range out {
		d := documented[s.rng.Intn(len(documented))]
		q := request{class: classHot, method: d.method, path: d.path, body: []byte(d.body)}
		if d.varied != nil && s.rng.Intn(2) == 0 {
			q = d.varied(s)
		}
		q.check = func(b []byte) error { return d.check(s, b) }
		q.at = time.Duration(float64(i) * float64(time.Second) / serveRate)
		out[i] = q
	}
	return out
}

// variedSimulate is the documented simulate request at a seed no
// earlier request asked.
func variedSimulate(s *serveSession) request {
	s.simMisses++
	body := fmt.Sprintf(simBodyFmt, s.r.seed*1_000_000+int64(s.simMisses)+1)
	return request{class: classSimMiss, method: http.MethodPost, path: "/v1/simulate", body: []byte(body)}
}

// variedWire is the documented wire query at a length drawn from
// 0.5–10 mm, which never repeats an earlier one.
func variedWire(s *serveSession) request {
	length := strconv.FormatFloat(0.5+9.5*s.rng.Float64(), 'g', -1, 64)
	return request{class: classWireMiss, method: http.MethodGet, path: fmt.Sprintf(wirePath, length)}
}

func checkHealthz(_ *serveSession, b []byte) error {
	var h struct{ Status string }
	if err := json.Unmarshal(b, &h); err != nil || h.Status != "ok" {
		return fmt.Errorf("/healthz answered %q (%v)", b, err)
	}
	return nil
}

func checkRegistry(_ *serveSession, b []byte) error {
	var l struct{ Experiments []string }
	if err := json.Unmarshal(b, &l); err != nil || !slices.Equal(l.Experiments, experiments.IDs()) {
		return fmt.Errorf("/v1/experiments does not list the registry (%v)", err)
	}
	return nil
}

// cliBytes checks an experiment body against what `cryowire -quick
// -json <id>` prints: the scripts/serve_smoke.sh contract, computed in
// process.
func cliBytes(id string) func(*serveSession, []byte) error {
	return func(s *serveSession, b []byte) error {
		if !bytes.Equal(b, s.cli[id]) {
			return fmt.Errorf("%s body differs from `cryowire -quick -json %s`", id, id)
		}
		return nil
	}
}

func checkSimulate(_ *serveSession, b []byte) error {
	var res struct {
		Design string
		IPC    float64
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	if res.Design != simDesign || !(res.IPC > 0) {
		return fmt.Errorf("simulate: got design %q IPC %g, asked for %q", res.Design, res.IPC, simDesign)
	}
	return nil
}

func checkWire(_ *serveSession, b []byte) error {
	var res struct {
		Class   string  `json:"class"`
		Speedup float64 `json:"speedup"`
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return fmt.Errorf("wire speedup: %w", err)
	}
	if res.Class != wireClass || !(res.Speedup > 0) {
		return fmt.Errorf("wire speedup: got class %q speed-up %g, asked for %s", res.Class, res.Speedup, wireClass)
	}
	return nil
}

// points checks a sweep body carries between one and n points (a
// load-latency sweep stops at saturation).
func points(n int) func(*serveSession, []byte) error {
	return func(_ *serveSession, b []byte) error {
		var res struct{ Points []json.RawMessage }
		if err := json.Unmarshal(b, &res); err != nil || len(res.Points) < 1 || len(res.Points) > n {
			return fmt.Errorf("sweep: %d points, want 1 to %d (%v)", len(res.Points), n, err)
		}
		return nil
	}
}

func validJSON(_ *serveSession, b []byte) error {
	if !json.Valid(b) {
		return fmt.Errorf("the body is not JSON")
	}
	return nil
}

func (s *serveSession) pass(tr *Tracer, parent int64, seconds float64) (passResult, error) {
	if err := s.expectCLI(); err != nil {
		return passResult{}, err
	}
	plan := s.plan(seconds)
	outs := openLoop(context.Background(), plan, s.r.workers, func(q request) (int, error) {
		_, end := tr.Begin(parent, "http/"+q.class)
		defer end()
		status, body, err := s.e.send(q.method, q.path, q.body)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return status, fmt.Errorf("%s %s: status %d: %s", q.method, q.path, status, bytes.TrimSpace(body))
		}
		return status, q.check(body)
	})
	s.last, s.lastOuts = plan, outs

	s.r.attempt(len(outs))
	res := passResult{ops: make([]float64, len(outs))}
	var end time.Duration
	for i, o := range outs {
		res.ops[i] = ms(o.latency())
		end = max(end, o.done)
		if o.err != nil {
			s.r.fail("request %d (%s %s): %v", i, plan[i].method, plan[i].path, o.err)
			continue
		}
		res.work++
	}
	res.wall = end.Seconds()
	s.passes++
	if v, pct := tail(res.ops); s.passes > 1 && v > ms(latencyLimit) {
		fmt.Fprintf(os.Stderr, "bench: %s: p%g latency %.1f ms is over the %v limit\n", s.r.workload, pct, v, latencyLimit)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveSection offers the request mix for serveSectionSeconds and
// reports each class's median service time, the requests the server
// refused, and how late the generator ran.
func serveSection(r *runner) error {
	e, err := setUp(r)
	if err != nil {
		return err
	}
	defer e.close()
	sess, err := openServe(r, e)
	if err != nil {
		return err
	}
	s := sess.(*serveSession)
	if _, err := s.pass(nil, 0, warmupSeconds); err != nil {
		return err
	}
	var perr error
	r.span(0, "serve", func(id int64) { _, perr = s.pass(r.tr, id, serveSectionSeconds) })
	if perr != nil {
		return perr
	}
	byClass := map[string][]float64{}
	var late []float64
	rejected := 0
	for i, o := range s.lastOuts {
		byClass[s.last[i].class] = append(byClass[s.last[i].class], ms(o.service()))
		late = append(late, ms(o.late()))
		if o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable {
			rejected++
		}
	}
	r.put("server.hot_ms", byClass[classHot]...)
	r.put("server.wire_miss_ms", byClass[classWireMiss]...)
	r.put("server.sim_miss_ms", byClass[classSimMiss]...)
	r.put("server.rejected", float64(rejected))
	r.putValue("loadgen.late_p99_ms", percentile(late, 99), "p99", summarize(late))
	return nil
}
