package jobs

import (
	"encoding/json"
	"fmt"

	"cryowire/internal/dse"
	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

// Spec is the durable description of one asynchronous DSE job: every
// input the engine's determinism contract ranges over, in a flat,
// human-readable JSON shape. Workloads are stored by name and resolved
// at run time, so a spec written by one process replays identically in
// the process that recovers it.
type Spec struct {
	// Strategy, Budget and Seed parameterize the search (see dse.Config).
	Strategy string `json:"strategy"`
	Budget   int    `json:"budget"`
	Seed     int64  `json:"seed"`
	// TempsK, Modes, Depths, Nets and Workloads are the space axes.
	TempsK    []float64 `json:"temps_k"`
	Modes     []string  `json:"modes"`
	Depths    []int     `json:"depths"`
	Nets      []string  `json:"nets"`
	Workloads []string  `json:"workloads"`
	// StageTempsK is the optional memory-stage temperature axis
	// (multi-stage cooling chain). omitempty keeps specs written before
	// the axis existed byte-identical on rewrite.
	StageTempsK []float64 `json:"stage_temps_k,omitempty"`
	// WarmupCycles, MeasureCycles and SimSeed are the per-candidate
	// simulation knobs.
	WarmupCycles  int   `json:"warmup_cycles"`
	MeasureCycles int   `json:"measure_cycles"`
	SimSeed       int64 `json:"sim_seed"`
	// Workers bounds the job's parallel evaluation fan-out (0 = all
	// CPUs). Worker count never changes the result bytes.
	Workers int `json:"workers"`
	// CheckpointEvery caps evaluations per journal checkpoint (0 = the
	// engine default). A scheduling knob like Workers.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Prior / ScreenMargin parameterize the surrogate strategies: paths
	// of prior journals to learn from and the screen strategy's
	// Pareto-band width (0 = engine default). omitempty keeps specs
	// written before the surrogate existed byte-identical on rewrite.
	Prior        []string `json:"prior,omitempty"`
	ScreenMargin float64  `json:"screen_margin,omitempty"`
}

// RetiredFieldError reports a spec field an earlier release honoured
// and this one does not, where ignoring it would change what the job
// computes. range_start/range_end restricted a job to a slice of its
// space: run without them, the job would search the whole space.
type RetiredFieldError struct {
	Field string
}

func (e *RetiredFieldError) Error() string {
	return fmt.Sprintf("jobs: spec: field %q is retired and would change the search; resubmit the job without it", e.Field)
}

// UnmarshalJSON decodes a spec file. Unknown keys are ignored, so
// fields retired without changing any result (batch_lanes, shards,
// replicas) still load; a non-zero retired range is a
// *RetiredFieldError, so such a job is reported damaged, never run.
func (sp *Spec) UnmarshalJSON(b []byte) error {
	type plain Spec // no methods: decoding it does not recurse
	var v struct {
		plain
		RangeStart int `json:"range_start"`
		RangeEnd   int `json:"range_end"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	if v.RangeStart != 0 {
		return &RetiredFieldError{Field: "range_start"}
	}
	if v.RangeEnd != 0 {
		return &RetiredFieldError{Field: "range_end"}
	}
	*sp = Spec(v.plain)
	return nil
}

// SpecFromConfig extracts the durable spec from a resolved engine
// config (the server's DTO resolution already validated it).
func SpecFromConfig(cfg dse.Config) Spec {
	return Spec{
		Strategy:        cfg.Strategy,
		Budget:          cfg.Budget,
		Seed:            cfg.Seed,
		TempsK:          cfg.Space.TempsK,
		Modes:           cfg.Space.Modes,
		Depths:          cfg.Space.Depths,
		Nets:            cfg.Space.Nets,
		Workloads:       cfg.Space.WorkloadNames,
		StageTempsK:     cfg.Space.StageTempsK,
		WarmupCycles:    cfg.Sim.WarmupCycles,
		MeasureCycles:   cfg.Sim.MeasureCycles,
		SimSeed:         cfg.Sim.Seed,
		Workers:         cfg.Workers,
		CheckpointEvery: cfg.CheckpointEvery,
		Prior:           cfg.Priors,
		ScreenMargin:    cfg.ScreenMargin,
	}
}

// Config resolves the spec back into an engine config (journal path
// and platform are the manager's business, not the spec's). Workload
// names resolve against the built-in suite; a spec naming an unknown
// workload fails here, before any state transitions.
func (sp Spec) Config() (dse.Config, error) {
	wls := make([]workload.Profile, 0, len(sp.Workloads))
	for _, n := range sp.Workloads {
		w, err := workload.ByName(n)
		if err != nil {
			return dse.Config{}, fmt.Errorf("jobs: spec: %w", err)
		}
		wls = append(wls, w)
	}
	space := dse.NewSpace(sp.TempsK, sp.Modes, sp.Depths, sp.Nets, wls)
	if len(sp.StageTempsK) > 0 {
		space = space.WithStages(sp.StageTempsK)
	}
	if err := space.Validate(); err != nil {
		return dse.Config{}, fmt.Errorf("jobs: spec: %w", err)
	}
	return dse.Config{
		Space:           space,
		Strategy:        sp.Strategy,
		Budget:          sp.Budget,
		Seed:            sp.Seed,
		Sim:             sim.Config{WarmupCycles: sp.WarmupCycles, MeasureCycles: sp.MeasureCycles, Seed: sp.SimSeed},
		Workers:         sp.Workers,
		CheckpointEvery: sp.CheckpointEvery,
		Priors:          sp.Prior,
		ScreenMargin:    sp.ScreenMargin,
	}, nil
}

// Total is the number of evaluations the job will perform when the
// strategy does not converge early: the budget clipped to the space.
func (sp Spec) Total() int {
	size := len(sp.TempsK) * len(sp.Modes) * len(sp.Depths) * len(sp.Nets) * len(sp.Workloads)
	if n := len(sp.StageTempsK); n > 0 {
		size *= n
	}
	total := size
	if sp.Budget > 0 && sp.Budget < total {
		total = sp.Budget
	}
	return total
}
