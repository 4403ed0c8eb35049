package server

import (
	"context"
	"net/http"
	"strings"

	"cryowire/internal/dse"
	"cryowire/internal/experiments"
	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

// dseDTO is the request body of POST /v1/dse. All fields are optional;
// the zero body greedily grid-searches the quick space, like
// `cryowire dse -quick`. Axis overrides replace the corresponding axis
// of the default space. Journaling is a CLI feature — the server's
// cache already memoizes whole responses — so there is no journal
// field.
type dseDTO struct {
	// Strategy picks the search strategy (default "grid").
	Strategy string `json:"strategy"`
	// Budget caps evaluated candidates (0 = whole space).
	Budget int `json:"budget"`
	// Seed drives the seeded strategies.
	Seed int64 `json:"seed"`
	// Quick shrinks the default space and the simulations.
	Quick bool `json:"quick"`
	// Workers bounds the parallel evaluation fan-out.
	Workers int `json:"workers"`
	// TempsK, Modes, Depths, Nets and Workloads override one axis each.
	TempsK    []float64 `json:"temps_k"`
	Modes     []string  `json:"modes"`
	Depths    []int     `json:"depths"`
	Nets      []string  `json:"nets"`
	Workloads []string  `json:"workloads"`
	// StageTempsK enables the optional memory-stage temperature axis:
	// staged candidates are priced through the multi-stage cooling
	// chain instead of the flat (1+CO) lift. Empty leaves the search —
	// and its result bytes — exactly as before the axis existed.
	StageTempsK []float64 `json:"stage_temps_k"`
	// Prior names server-local prior journal files the surrogate
	// strategies (surrogate-hillclimb, ei, screen) learn from. The
	// cache key includes a fingerprint of the files' content, so a
	// prior that changed on disk can never serve a stale response.
	Prior []string `json:"prior"`
	// ScreenMargin is the screen strategy's Pareto-band width (0 =
	// engine default). Part of the cache key: it changes which points
	// get simulated.
	ScreenMargin float64 `json:"screen_margin"`
	// Config overrides the per-candidate simulation run-length/seed.
	Config struct {
		WarmupCycles  int   `json:"warmup_cycles"`
		MeasureCycles int   `json:"measure_cycles"`
		Seed          int64 `json:"seed"`
	} `json:"config"`
}

// dseSpaceBudget bounds how much searching one HTTP request may ask
// for; bigger studies belong on the CLI, whose journal checkpoints
// their progress.
const dseSpaceBudget = 4096

// dseConfig resolves the DTO into an engine config, rejecting requests
// that would evaluate more than dseSpaceBudget candidates.
func (d dseDTO) dseConfig() (dse.Config, error) {
	if d.Budget < 0 || d.Workers < 0 {
		return dse.Config{}, badRequest("budget and workers must be >= 0")
	}
	if d.Config.WarmupCycles < 0 || d.Config.MeasureCycles < 0 {
		return dse.Config{}, badRequest("cycle counts must be >= 0")
	}
	space := dse.DefaultSpace(d.Quick)
	if len(d.TempsK) > 0 {
		space.TempsK = d.TempsK
	}
	if len(d.Modes) > 0 {
		space.Modes = d.Modes
	}
	if len(d.Depths) > 0 {
		space.Depths = d.Depths
	}
	if len(d.Nets) > 0 {
		space.Nets = d.Nets
	}
	wls := space.Workloads
	if len(d.Workloads) > 0 {
		wls = wls[:0]
		for _, n := range d.Workloads {
			w, err := workload.ByName(n)
			if err != nil {
				return dse.Config{}, notFound("%v", err)
			}
			wls = append(wls, w)
		}
	}
	space = dse.NewSpace(space.TempsK, space.Modes, space.Depths, space.Nets, wls)
	if len(d.StageTempsK) > 0 {
		space = space.WithStages(d.StageTempsK)
	}
	strategy := d.Strategy
	if strategy == "" {
		strategy = dse.StrategyGrid
	}
	search := dse.Config{
		Space:        space,
		Strategy:     strategy,
		Budget:       d.Budget,
		Seed:         d.Seed,
		Workers:      d.Workers,
		Priors:       d.Prior,
		ScreenMargin: d.ScreenMargin,
	}
	// Reject bad options at parse time (400), not from inside the cached
	// computation. An unknown strategy's error lists every accepted
	// strategy — surrogate trio included.
	if err := search.Validate(); err != nil {
		return dse.Config{}, badRequest("%v", err)
	}
	evals := space.Size()
	if d.Budget > 0 && d.Budget < evals {
		evals = d.Budget
	}
	if evals > dseSpaceBudget {
		return dse.Config{}, badRequest("request would evaluate %d candidates, server cap is %d; cap the budget, or run `cryowire dse` locally (-workers spreads it over the CPUs; -journal f checkpoints it and -resume continues a killed run)", evals, dseSpaceBudget)
	}
	search.Sim = sim.DefaultConfig()
	if d.Quick {
		search.Sim = experiments.QuickOptions().Sim
	}
	if d.Config.WarmupCycles > 0 {
		search.Sim.WarmupCycles = d.Config.WarmupCycles
	}
	if d.Config.MeasureCycles > 0 {
		search.Sim.MeasureCycles = d.Config.MeasureCycles
	}
	if d.Config.Seed != 0 {
		search.Sim.Seed = d.Config.Seed
	}
	return search, nil
}

// canonicalDSE renders the resolved search canonically for the cache
// key. Everything Result depends on is included; workers is not (a
// scheduling knob never changes the output, by the engine's
// determinism contract).
func canonicalDSE(cfg dse.Config) string {
	s := cfg.Space
	return canonicalKey("dse",
		cfg.Strategy, canonInt(cfg.Budget), canonInt64(cfg.Seed),
		canonFloats(s.TempsK), strings.Join(s.Modes, ","), canonInts(s.Depths),
		strings.Join(s.Nets, ","), strings.Join(s.WorkloadNames, ","),
		canonFloats(s.StageTempsK),
		canonInt(cfg.Sim.WarmupCycles), canonInt(cfg.Sim.MeasureCycles), canonInt64(cfg.Sim.Seed),
		canonFloat(cfg.ScreenMargin),
		strings.Join(cfg.Priors, ","), dse.PriorFingerprint(cfg.Priors))
}

// handleDSE runs one design-space search and responds with
// dse.Result.JSON — byte-identical to `cryowire dse -json` for the
// same parameters.
func (s *Server) handleDSE(w http.ResponseWriter, r *http.Request) {
	var dto dseDTO
	if err := decodeStrict(r, &dto); err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	cfg, err := dto.dseConfig()
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	s.serveCached(w, r, canonicalDSE(cfg), func(ctx context.Context) ([]byte, error) {
		res, err := s.runDSE(ctx, cfg)
		if err != nil {
			return nil, err
		}
		b, err := res.JSON()
		if err != nil {
			return nil, err
		}
		// Match `cryowire dse -json` stdout (fmt.Println adds \n).
		return append(b, '\n'), nil
	})
}
