package jobs

import (
	"fmt"
	"net/url"

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
	// RangeStart / RangeEnd restrict a grid job to the half-open
	// point-index interval [RangeStart, RangeEnd) — the shape a shard
	// coordinator submits to a replica. Both zero means the whole
	// space. omitempty keeps pre-shard specs byte-identical on rewrite.
	RangeStart int `json:"range_start,omitempty"`
	RangeEnd   int `json:"range_end,omitempty"`
	// Shards / Replicas turn the job into a shard fan-out: the manager
	// hands it to the shard coordinator, which partitions the space
	// into Shards ranges and runs them on local executors (empty
	// Replicas) or remote `cryowire serve` replicas. A sharded job
	// cannot itself be range-restricted.
	Shards   int      `json:"shards,omitempty"`
	Replicas []string `json:"replicas,omitempty"`
	// Prior / ScreenMargin parameterize the surrogate strategies: paths
	// of prior journals to learn from and the screen strategy's
	// Pareto-band width (0 = engine default). omitempty keeps specs
	// written before the surrogate existed byte-identical on rewrite.
	Prior        []string `json:"prior,omitempty"`
	ScreenMargin float64  `json:"screen_margin,omitempty"`
}

// Sharded reports whether the job runs through the shard coordinator
// instead of a plain engine run.
func (sp Spec) Sharded() bool { return sp.Shards > 1 || len(sp.Replicas) > 0 }

// ValidateSharding checks the fan-out parameters of a sharded spec, so
// a bad submission is rejected up front instead of landing the job on
// failed. Non-sharded specs pass trivially.
func (sp Spec) ValidateSharding() error {
	if !sp.Sharded() {
		return nil
	}
	if s := sp.Strategy; s != "" && s != dse.StrategyGrid {
		return fmt.Errorf("jobs: spec: sharding requires the %q strategy (got %q)", dse.StrategyGrid, s)
	}
	if sp.Shards < 0 {
		return fmt.Errorf("jobs: spec: negative shard count %d", sp.Shards)
	}
	for _, r := range sp.Replicas {
		u, err := url.Parse(r)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("jobs: spec: replica %q is not an http(s) base URL", r)
		}
	}
	if len(sp.Replicas) > 0 && (sp.WarmupCycles <= 0 || sp.MeasureCycles <= 0 || sp.SimSeed == 0) {
		return fmt.Errorf("jobs: spec: remote dispatch requires explicit warmup_cycles, measure_cycles and sim seed so replicas journal under the coordinator's key")
	}
	return nil
}

// SpecFromConfig extracts the durable spec from a resolved engine
// config (the server's DTO resolution already validated it).
func SpecFromConfig(cfg dse.Config) Spec {
	sp := Spec{
		Strategy:      cfg.Strategy,
		Budget:        cfg.Budget,
		Seed:          cfg.Seed,
		TempsK:        cfg.Space.TempsK,
		Modes:         cfg.Space.Modes,
		Depths:        cfg.Space.Depths,
		Nets:          cfg.Space.Nets,
		Workloads:     cfg.Space.WorkloadNames,
		StageTempsK:   cfg.Space.StageTempsK,
		WarmupCycles:  cfg.Sim.WarmupCycles,
		MeasureCycles: cfg.Sim.MeasureCycles,
		SimSeed:       cfg.Sim.Seed,
		Workers:       cfg.Workers,
	}
	if cfg.Range != nil {
		sp.RangeStart, sp.RangeEnd = cfg.Range.Start, cfg.Range.End
	}
	sp.CheckpointEvery = cfg.CheckpointEvery
	sp.Prior = cfg.Priors
	sp.ScreenMargin = cfg.ScreenMargin
	return sp
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
	cfg := dse.Config{
		Space:           space,
		Strategy:        sp.Strategy,
		Budget:          sp.Budget,
		Seed:            sp.Seed,
		Sim:             sim.Config{WarmupCycles: sp.WarmupCycles, MeasureCycles: sp.MeasureCycles, Seed: sp.SimSeed},
		Workers:         sp.Workers,
		CheckpointEvery: sp.CheckpointEvery,
		Priors:          sp.Prior,
		ScreenMargin:    sp.ScreenMargin,
	}
	if sp.RangeStart != 0 || sp.RangeEnd != 0 {
		if sp.Sharded() {
			return dse.Config{}, fmt.Errorf("jobs: spec: a sharded job owns its ranges; drop range_start/range_end")
		}
		r := dse.Range{Start: sp.RangeStart, End: sp.RangeEnd}
		if err := r.Validate(space.Size()); err != nil {
			return dse.Config{}, fmt.Errorf("jobs: spec: %w", err)
		}
		cfg.Range = &r
	}
	return cfg, nil
}

// Total is the number of evaluations the job will perform when the
// strategy does not converge early: the budget clipped to the space —
// or to the point-index range for a range-restricted job.
func (sp Spec) Total() int {
	size := len(sp.TempsK) * len(sp.Modes) * len(sp.Depths) * len(sp.Nets) * len(sp.Workloads)
	if n := len(sp.StageTempsK); n > 0 {
		size *= n
	}
	total := size
	if sp.Budget > 0 && sp.Budget < total {
		total = sp.Budget
	}
	if sp.RangeStart != 0 || sp.RangeEnd != 0 {
		if rl := sp.RangeEnd - sp.RangeStart; rl > 0 && rl < total {
			total = rl
		}
	}
	return total
}
