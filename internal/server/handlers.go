package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"cryowire"
	"cryowire/internal/buildinfo"
	"cryowire/internal/experiments"
	"cryowire/internal/noc"
	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

// --- plumbing ---------------------------------------------------------------

// hashKey folds a canonical request description into a fixed-size cache
// key. The canonical string is built from parsed, normalized values —
// never from raw query/body bytes — so equivalent spellings of the same
// request ("77" vs "77.0", reordered JSON fields, absent defaults) land
// on the same entry.
func hashKey(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}

// writeJSON emits a prebuilt JSON body.
func writeJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// serveCached is the read path every /v1 compute endpoint goes
// through: LRU lookup → singleflight-coalesced compute → store. The
// compute function receives a context that is canceled when every
// caller waiting on it has gone away (or the request timeout fires),
// which is what stops abandoned work.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, canonical string, compute func(ctx context.Context) ([]byte, error)) {
	key := hashKey(canonical)
	if body, ok := s.cache.Get(key); ok {
		w.Header().Set("X-Cache", "hit")
		writeJSON(w, body)
		return
	}
	body, shared, err := s.flights.Do(r.Context(), key, compute)
	if shared {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
			// The client went away; there is nobody to answer. The
			// computation itself was canceled by the singleflight
			// refcount if no other request still wants it.
			return
		}
		writeError(w, errorStatus(err), err.Error())
		return
	}
	if shared {
		w.Header().Set("X-Cache", "coalesced")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	s.cache.Add(key, body)
	writeJSON(w, body)
}

// decodeStrict parses an optional JSON request body into v, rejecting
// unknown fields (a typoed option should fail loudly, not silently run
// a default-length simulation) and bodies over 1 MiB.
func decodeStrict(r *http.Request, v any) error {
	b, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return badRequest("reading body: %v", err)
	}
	if len(bytes.TrimSpace(b)) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// marshalBody renders v the way every non-report endpoint responds:
// stable indented JSON with a trailing newline.
func marshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// queryFloat parses a float query parameter with a default.
func queryFloat(r *http.Request, name string, def float64) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, badRequest("parameter %s: %q is not a number", name, raw)
	}
	return v, nil
}

// queryBool parses a bool query parameter with a default.
func queryBool(r *http.Request, name string, def bool) (bool, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, badRequest("parameter %s: %q is not a boolean", name, raw)
	}
	return v, nil
}

// queryFloats parses a comma-separated float list with a default.
func queryFloats(r *http.Request, name string, def []float64) ([]float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	parts := strings.Split(raw, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, badRequest("parameter %s: %q is not a number", name, p)
		}
		out = append(out, v)
	}
	return out, nil
}

// canonFloats renders a float list canonically for cache keys.
func canonFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// --- operational endpoints --------------------------------------------------

// handleHealthz reports liveness plus the same build identification
// `cryowire -version` prints, so "which build is this instance?" is
// answerable from the health probe.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	info := map[string]string{
		"status":  "ok",
		"version": buildinfo.Version(),
		"go":      buildinfo.GoVersion(),
	}
	if rev := buildinfo.Revision(); rev != "" {
		info["revision"] = rev
	}
	body, err := marshalBody(info)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, body)
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() || s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.metrics.renderProm(s.cache.Stats(), s.platformStats()))
}

// --- /v1 endpoints ----------------------------------------------------------

// handleListExperiments returns the experiment registry.
func (s *Server) handleListExperiments(w http.ResponseWriter, _ *http.Request) {
	body, err := marshalBody(map[string][]string{"experiments": experiments.IDs()})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, body)
}

// optionsDTO is the request body of POST /v1/experiments/{id}. All
// fields are optional; the zero body runs CLI-default options, exactly
// like `cryowire <id> -json`.
type optionsDTO struct {
	// Quick selects the shrunk test/bench-grade sweeps (`-quick`).
	Quick bool `json:"quick"`
	// Workers bounds the experiment's internal fan-out (`-workers`).
	Workers int `json:"workers"`
	// WarmupCycles/MeasureCycles/Seed override the simulation knobs.
	WarmupCycles  int   `json:"warmup_cycles"`
	MeasureCycles int   `json:"measure_cycles"`
	Seed          int64 `json:"seed"`
}

// options resolves the DTO against the CLI defaults and validates it.
func (d optionsDTO) options() (experiments.Options, error) {
	if d.Workers < 0 {
		return experiments.Options{}, badRequest("workers must be >= 0, got %d", d.Workers)
	}
	if d.WarmupCycles < 0 || d.MeasureCycles < 0 {
		return experiments.Options{}, badRequest("cycle counts must be >= 0")
	}
	opt := experiments.DefaultOptions()
	if d.Quick {
		opt = experiments.QuickOptions()
	}
	if d.WarmupCycles > 0 {
		opt.Sim.WarmupCycles = d.WarmupCycles
	}
	if d.MeasureCycles > 0 {
		opt.Sim.MeasureCycles = d.MeasureCycles
	}
	if d.Seed != 0 {
		opt.Sim.Seed = d.Seed
	}
	opt.Workers = d.Workers
	return opt, nil
}

// handleExperiment runs one experiment and responds with Report.JSON —
// byte-identical to `cryowire <id> -json` stdout for the same options.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !slices.Contains(experiments.IDs(), id) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q (see GET /v1/experiments)", id))
		return
	}
	var dto optionsDTO
	if err := decodeStrict(r, &dto); err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	opt, err := dto.options()
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	canonical := canonicalKey("experiment", id, canonBool(dto.Quick), canonInt(opt.Workers),
		canonInt(opt.Sim.WarmupCycles), canonInt(opt.Sim.MeasureCycles), canonInt64(opt.Sim.Seed))
	s.serveCached(w, r, canonical, func(ctx context.Context) ([]byte, error) {
		rep, err := s.runExperiment(ctx, id, opt)
		if err != nil {
			return nil, err
		}
		b, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		// The CLI prints the document with fmt.Println; match it so the
		// endpoint is byte-identical to `cryowire <id> -json`.
		return append(b, '\n'), nil
	})
}

// simulateDTO is the request body of POST /v1/simulate.
type simulateDTO struct {
	// Design names a Table 4 evaluation system (see the error message
	// for the accepted names).
	Design string `json:"design"`
	// Workload names a PARSEC/SPEC/CloudSuite profile.
	Workload string `json:"workload"`
	// Config overrides the simulation run-length and seed.
	Config struct {
		WarmupCycles  int   `json:"warmup_cycles"`
		MeasureCycles int   `json:"measure_cycles"`
		Seed          int64 `json:"seed"`
	} `json:"config"`
}

// serveDesigns returns the designs POST /v1/simulate accepts.
func serveDesigns() []sim.Design {
	f := sim.NewFactory()
	return append(f.Evaluation(), f.SharedBus77(), f.IdealNoC77())
}

// designByName resolves a design name.
func designByName(name string) (sim.Design, error) {
	designs := serveDesigns()
	names := make([]string, len(designs))
	for i, d := range designs {
		names[i] = d.Name
		if d.Name == name {
			return d, nil
		}
	}
	return sim.Design{}, notFound("unknown design %q (have %s)", name, strings.Join(names, "; "))
}

// resolve validates the body and turns it into the design, profile and
// run config to simulate.
func (d simulateDTO) resolve() (sim.Design, workload.Profile, sim.Config, error) {
	if d.Design == "" || d.Workload == "" {
		return sim.Design{}, workload.Profile{}, sim.Config{}, badRequest(`body must name a "design" and a "workload"`)
	}
	des, err := designByName(d.Design)
	if err != nil {
		return sim.Design{}, workload.Profile{}, sim.Config{}, err
	}
	wl, err := workload.ByName(d.Workload)
	if err != nil {
		return sim.Design{}, workload.Profile{}, sim.Config{}, notFound("%v", err)
	}
	if d.Config.WarmupCycles < 0 || d.Config.MeasureCycles < 0 {
		return sim.Design{}, workload.Profile{}, sim.Config{}, badRequest("cycle counts must be >= 0")
	}
	cfg := sim.DefaultConfig()
	if d.Config.WarmupCycles > 0 {
		cfg.WarmupCycles = d.Config.WarmupCycles
	}
	if d.Config.MeasureCycles > 0 {
		cfg.MeasureCycles = d.Config.MeasureCycles
	}
	if d.Config.Seed != 0 {
		cfg.Seed = d.Config.Seed
	}
	return des, wl, cfg, nil
}

// handleSimulate runs one design × workload pair on the full-system
// simulator.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var dto simulateDTO
	if err := decodeStrict(r, &dto); err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	d, wl, cfg, err := dto.resolve()
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	canonical := canonicalKey("simulate", d.Name, wl.Name,
		canonInt(cfg.WarmupCycles), canonInt(cfg.MeasureCycles), canonInt64(cfg.Seed))
	s.serveCached(w, r, canonical, func(ctx context.Context) ([]byte, error) {
		res, err := s.runSimulate(ctx, d, wl, cfg)
		if err != nil {
			return nil, err
		}
		return marshalBody(res)
	})
}

// handleWireSpeedup serves the Fig 5 wire-study point query.
func (s *Server) handleWireSpeedup(w http.ResponseWriter, r *http.Request) {
	class := r.URL.Query().Get("class")
	if class == "" {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("parameter class is required (one of %s)", strings.Join(cryowire.WireClassNames(), ", ")))
		return
	}
	lengthMM, err := queryFloat(r, "length_mm", 0)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	if lengthMM <= 0 {
		writeError(w, http.StatusBadRequest, "parameter length_mm must be > 0")
		return
	}
	tempK, err := queryFloat(r, "temp_k", 77)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	repeated, err := queryBool(r, "repeated", false)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	canonical := canonicalKey("wire-speedup", class, canonFloat(lengthMM), canonFloat(tempK), canonBool(repeated))
	s.serveCached(w, r, canonical, func(context.Context) ([]byte, error) {
		speedup, err := cryowire.WireSpeedupAt(class, lengthMM, tempK, repeated)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		return marshalBody(map[string]any{
			"class":     class,
			"length_mm": lengthMM,
			"temp_k":    tempK,
			"repeated":  repeated,
			"speedup":   speedup,
		})
	})
}

// defaultRates is the load-latency endpoint's default injection grid.
var defaultRates = []float64{0.005, 0.01, 0.02, 0.04, 0.08, 0.16}

// handleNoCLoadLatency serves the Fig 21 load-latency sweep.
func (s *Server) handleNoCLoadLatency(w http.ResponseWriter, r *http.Request) {
	design := r.URL.Query().Get("design")
	if design == "" {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("parameter design is required (one of %s)", strings.Join(noc.DesignNames(), ", ")))
		return
	}
	pattern := r.URL.Query().Get("pattern")
	if pattern == "" {
		pattern = "uniform"
	}
	tempK, err := queryFloat(r, "temp_k", 77)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	rates, err := queryFloats(r, "rates", defaultRates)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	if len(rates) == 0 || len(rates) > 64 {
		writeError(w, http.StatusBadRequest, "rates must list 1–64 injection rates")
		return
	}
	canonical := canonicalKey("noc-load-latency", design, pattern, canonFloat(tempK), canonFloats(rates))
	s.serveCached(w, r, canonical, func(ctx context.Context) ([]byte, error) {
		pts, err := cryowire.NoCLoadLatencyCtx(ctx, design, pattern, tempK, rates)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, badRequest("%v", err)
		}
		return marshalBody(map[string]any{
			"design":  design,
			"pattern": pattern,
			"temp_k":  tempK,
			"points":  pts,
		})
	})
}

// defaultSweepTemps is the Fig 27 temperature grid.
var defaultSweepTemps = []float64{300, 250, 200, 150, 125, 100, 90, 77}

// handleTemperatureSweep serves the Fig 27 perf/power sweep.
func (s *Server) handleTemperatureSweep(w http.ResponseWriter, r *http.Request) {
	temps, err := queryFloats(r, "temps_k", defaultSweepTemps)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	if len(temps) == 0 || len(temps) > 256 {
		writeError(w, http.StatusBadRequest, "temps_k must list 1–256 temperatures")
		return
	}
	canonical := canonicalKey("temperature-sweep", canonFloats(temps))
	s.serveCached(w, r, canonical, func(context.Context) ([]byte, error) {
		pts, err := cryowire.TemperatureSweep(temps)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		return marshalBody(map[string]any{"points": pts})
	})
}
