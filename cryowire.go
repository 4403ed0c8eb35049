// Package cryowire is a from-scratch Go reproduction of "CryoWire:
// Wire-Driven Microarchitecture Designs for Cryogenic Computing"
// (Min, Chung, Byun, Kim, Kim — ASPLOS 2022).
//
// The package exposes the library's top-level workflow:
//
//	cw := cryowire.New()
//	sp := cw.DeriveCryoSP()        // §4: the superpipelined 77K core
//	bus := cw.DesignCryoBus()      // §5: the 1-cycle-broadcast H-tree bus
//	rep, _ := cryowire.RunExperiment("fig23", cryowire.DefaultOptions())
//
// Everything underneath lives in internal/ packages: device physics
// (internal/phys), wires and repeaters (internal/wire), a transient
// circuit solver (internal/circuit), the pipeline critical-path model
// (internal/pipeline), a cycle-level NoC simulator (internal/noc),
// MESI coherence (internal/coherence), a 64-core full-system simulator
// (internal/sim), power models (internal/power) and one experiment
// runner per paper table/figure (internal/experiments). DESIGN.md maps
// the paper to the code; EXPERIMENTS.md records reproduced numbers.
package cryowire

import (
	"context"
	"fmt"

	"cryowire/internal/core"
	"cryowire/internal/dse"
	"cryowire/internal/experiments"
	"cryowire/internal/fault"
	"cryowire/internal/noc"
	"cryowire/internal/platform"
	"cryowire/internal/power"
	"cryowire/internal/sim"
	"cryowire/internal/stage"
	"cryowire/internal/wire"
	"cryowire/internal/workload"
)

// CryoWire is the top-level model suite (re-exported from
// internal/core).
type CryoWire = core.CryoWire

// Reports for the two headline design derivations.
type (
	// CryoSPReport documents the §4 superpipelining flow.
	CryoSPReport = core.CryoSPReport
	// CryoBusReport documents the §5 bus design point.
	CryoBusReport = core.CryoBusReport
)

// New builds the default calibrated model suite. Every New call — and
// every other top-level entry point in this package — derives on one
// process-wide Platform, the calibrated device models.
func New() *CryoWire { return core.New() }

// Experiment plumbing.
type (
	// Report is a reproduced table or figure.
	Report = experiments.Report
	// Options tunes experiment run lengths.
	Options = experiments.Options
)

// DefaultOptions returns CLI-grade experiment options.
func DefaultOptions() Options { return experiments.DefaultOptions() }

// QuickOptions returns fast test/bench-grade options.
func QuickOptions() Options { return experiments.QuickOptions() }

// ExperimentIDs lists every reproducible table/figure.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment reproduces one paper table/figure by ID.
func RunExperiment(id string, opt Options) (*Report, error) {
	return experiments.Run(id, opt)
}

// RunExperimentCtx is RunExperiment with cancellation: once ctx is done
// the experiment's internal fan-outs stop handing out tasks, in-flight
// simulations abort between cycles, and ctx's error is returned. This
// is what lets an abandoned HTTP request (or a Ctrl-C'd CLI run) stop
// burning workers mid-sweep.
func RunExperimentCtx(ctx context.Context, id string, opt Options) (*Report, error) {
	return experiments.RunCtx(ctx, id, opt)
}

// ExperimentOutcome is one RunAllExperiments result.
type ExperimentOutcome = experiments.Outcome

// RunAllExperiments reproduces every table and figure, in sorted-ID
// order. Set Options.Workers > 1 to fan the registry out over a bounded
// worker pool — outcomes are byte-identical to a serial run because
// every experiment seeds from its own configuration, never from
// execution order.
func RunAllExperiments(opt Options) []ExperimentOutcome {
	return experiments.RunAll(opt)
}

// RunAllExperimentsCtx is RunAllExperiments with cancellation: once ctx
// is done no further experiment starts and every unfinished outcome
// carries ctx's error, so there is always one outcome per ID.
func RunAllExperimentsCtx(ctx context.Context, opt Options) []ExperimentOutcome {
	return experiments.RunAllCtx(ctx, opt)
}

// System-simulation access for downstream users.
type (
	// Design is a full system configuration (Table 4 row).
	Design = sim.Design
	// SimConfig controls simulation length and seed. It has no worker
	// knob: Simulate runs one simulation on the calling goroutine.
	SimConfig = sim.Config
	// SimResult is one simulation outcome.
	SimResult = sim.Result
	// Workload is a statistical workload profile.
	Workload = workload.Profile
	// FaultConfig declares a deterministic fault-injection scenario;
	// set SimConfig.Fault to run a design degraded.
	FaultConfig = fault.Config
	// SimWatchdog configures the deadlock/livelock detector guarding
	// every simulation run.
	SimWatchdog = sim.Watchdog
	// StallError is the watchdog's cycle-stamped diagnosis of a hung
	// simulation, returned by Simulate instead of spinning forever.
	StallError = sim.StallError
)

// EvaluationDesigns returns the paper's five systems.
func EvaluationDesigns() []Design { return sim.NewFactory().Evaluation() }

// WorkloadByName finds a profile (PARSEC/SPEC/CloudSuite).
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// ParsecWorkloads returns the 13 PARSEC 2.1 profiles.
func ParsecWorkloads() []Workload { return workload.Parsec() }

// Simulate runs one design × workload pair on the full-system
// simulator. Invalid designs and hung simulations come back as errors
// (the latter as a *StallError); any residual internal panic is
// recovered into an error — this boundary never panics.
func Simulate(d Design, w Workload, cfg SimConfig) (res SimResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cryowire: simulation panicked: %v", r)
		}
	}()
	s, err := sim.New(d, w, cfg)
	if err != nil {
		return SimResult{}, err
	}
	return s.Run()
}

// SimulateCtx is Simulate with cancellation: the run aborts between
// simulated cycles once ctx is done and returns ctx's error, so callers
// holding a deadline (HTTP handlers, batch drivers) never wait for a
// doomed run to finish.
func SimulateCtx(ctx context.Context, d Design, w Workload, cfg SimConfig) (SimResult, error) {
	if ctx != nil {
		cfg = cfg.WithContext(ctx)
	}
	return Simulate(d, w, cfg)
}

// --- wire-study API (the Fig 5 workflow) ------------------------------------

// WireClassNames lists the wire classes WireSpeedupAt accepts, in
// canonical order: "local", "semi-global" and "global" are the ITRS
// interconnect tiers of the Fig 5 study; "forwarding" is the in-core
// bypass-network wire of Table 1 (the geometry behind CryoSP).
func WireClassNames() []string { return wire.ClassNames() }

// WireSpeedupAt returns the 300K→tempK speed-up of a driven wire of the
// given class (see WireClassNames) and length. With repeated=true the
// wire carries latency-optimal repeaters re-optimized at each
// temperature. Unknown classes and unphysical temperatures are errors.
// Each call derives afresh and keeps nothing; repeaters are sized in
// closed form (wire.OptimalSegmentation).
func WireSpeedupAt(class string, lengthMM, tempK float64, repeated bool) (float64, error) {
	return platform.Default().WireSpeedupByClass(class, lengthMM, tempK, repeated)
}

// --- NoC design-space API (the Fig 21 workflow) -----------------------------

// LoadLatencyPoint is one point of a load-latency curve.
type LoadLatencyPoint = noc.SweepPoint

// NoCDesignNames lists the 64-core interconnects available to
// NoCLoadLatency. The list is read from the same factory table that
// builds the networks, so it can never drift from what NoCLoadLatency
// accepts.
func NoCDesignNames() []string { return noc.DesignNames() }

// NoCLoadLatency sweeps injection rates over a named 64-core NoC at the
// given temperature under a named traffic pattern ("uniform",
// "transpose", "hotspot", "bitreverse", "burst"). Designs are resolved
// by the shared noc factory (see NoCDesignNames); timings are derived
// on the shared Platform. Every rate must lie in (0, 1] packets per
// node per cycle: a node offers at most one packet a cycle.
func NoCLoadLatency(design, pattern string, tempK float64, rates []float64) ([]LoadLatencyPoint, error) {
	return NoCLoadLatencyCtx(context.Background(), design, pattern, tempK, rates)
}

// NoCLoadLatencyCtx is NoCLoadLatency with cancellation: once ctx is
// done no further rate starts, the rate in progress stops within 64
// cycles, and the call returns ctx's error.
func NoCLoadLatencyCtx(ctx context.Context, design, pattern string, tempK float64, rates []float64) ([]LoadLatencyPoint, error) {
	for _, r := range rates {
		// The negated test also rejects NaN.
		if !(r > 0 && r <= 1) {
			return nil, fmt.Errorf("cryowire: injection rate %v is outside (0, 1] packets per node per cycle", r)
		}
	}
	pf := platform.Default()
	op, err := pf.OpAt(tempK)
	if err != nil {
		return nil, err
	}
	meshT := pf.MeshTiming(op, 1)
	busT := pf.BusTiming(op)
	// Probe the design name once so an unknown name fails before the
	// sweep starts instead of on the first rate.
	if _, err := noc.NewByName(design, 64, meshT, busT); err != nil {
		return nil, err
	}
	mk := func() noc.Network {
		n, err := noc.NewByName(design, 64, meshT, busT)
		if err != nil {
			// Unreachable: the probe above validated name and shape.
			panic(fmt.Sprintf("cryowire: %v", err))
		}
		return n
	}
	pat, err := noc.PatternByName(pattern)
	if err != nil {
		return nil, err
	}
	cfg := noc.SweepConfig{Pattern: pat, Rates: rates, Seed: 1, Ctx: ctx}
	pts := noc.LoadLatency(mk, cfg)
	if ctx != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("cryowire: load-latency sweep: %w", ctx.Err())
	}
	return pts, nil
}

// --- temperature-sweep API (the Fig 27 workflow) ----------------------------

// TempSweepPoint is one temperature of the perf/power study.
type TempSweepPoint = power.SweepPoint

// TemperatureSweep computes frequency, power (with cooling) and
// performance-per-watt across operating temperatures. Unphysical
// (non-positive or NaN) temperatures are rejected with an error.
func TemperatureSweep(tempsK []float64) ([]TempSweepPoint, error) {
	temps := make([]power.Kelvin, len(tempsK))
	for i, t := range tempsK {
		temps[i] = power.Kelvin(t)
	}
	return platform.Default().PowerModel().TemperatureSweep(temps)
}

// Design-space exploration (internal/dse): search temperature, voltage
// mode, pipeline depth, interconnect and workload against pluggable
// objectives and extract the Pareto frontier.
type (
	// DSESpace is the searchable design space.
	DSESpace = dse.Space
	// DSEPoint is one fully specified candidate design.
	DSEPoint = dse.Point
	// DSEConfig parameterizes one search.
	DSEConfig = dse.Config
	// DSEResult is a search outcome: the evaluated count plus the
	// Pareto frontier over (performance, watts, energy).
	DSEResult = dse.Result
)

// DefaultDSESpace returns the standard search space (quick shrinks it
// for tests and fast looks).
func DefaultDSESpace(quick bool) DSESpace { return dse.DefaultSpace(quick) }

// DSEStrategies lists the built-in search strategy names.
func DSEStrategies() []string { return dse.Strategies() }

// RunDSE executes one design-space search on the shared platform; see
// dse.Run for the journaling and determinism contract.
func RunDSE(ctx context.Context, cfg DSEConfig) (*DSEResult, error) {
	return dse.Run(ctx, cfg)
}

// --- temperature-stage API (the multi-stage cryostat workflow) --------------

// Multi-stage system model (internal/stage): components on 300 K /
// 77 K / 4 K stages connected by cryogenic cables, each stage's
// heatload lifted to wall power by its own Carnot-fraction cooler.
type (
	// StageAssignment places the CryoSP tier and the memory hierarchy
	// on temperature stages (the host always stays at 300 K).
	StageAssignment = stage.Assignment
	// StageSweepOptions tunes a staged sweep.
	StageSweepOptions = stage.SweepOptions
	// StageSweepResult is the sweep's cooling-inclusive scorecard:
	// per-assignment simulation metrics plus per-stage heatload
	// breakdowns.
	StageSweepResult = stage.SweepResult
)

// DefaultStageAssignments returns the three canonical assignments the
// staged study compares: all-300K, the paper's 77 K CryoSP system, and
// the 77 K + 4 K split.
func DefaultStageAssignments() []StageAssignment { return stage.DefaultAssignments() }

// StageSweep simulates each assignment and prices it through its
// staged cooling chain. nil assignments run the defaults. Deterministic:
// equal inputs produce byte-identical JSON at any worker count
// (the `cryowire stage -json` ↔ POST /v1/stage contract).
func StageSweep(ctx context.Context, assigns []StageAssignment, opt StageSweepOptions) (*StageSweepResult, error) {
	return stage.Sweep(ctx, assigns, opt)
}
