package dse

import (
	"context"
	"fmt"
	"sync/atomic"

	"cryowire/internal/mem"
	"cryowire/internal/par"
	"cryowire/internal/phys"
	"cryowire/internal/pipeline"
	"cryowire/internal/platform"
	"cryowire/internal/power"
	"cryowire/internal/sim"
	"cryowire/internal/stage"
	"cryowire/internal/workload"
)

// Eval is the measured outcome of one candidate: the simulator's
// performance plus the power model's cooling-inclusive cost metrics.
// Every field is a pure function of (Point, sim.Config), which is what
// lets the checkpoint journal replay evaluations byte-identically.
type Eval struct {
	// FreqGHz is the derived core clock at the candidate's operating
	// point (the §4 critical-path frequency search).
	FreqGHz float64 `json:"freq_ghz"`
	// IPC is per-core committed instructions per core cycle.
	IPC float64 `json:"ipc"`
	// Performance is committed instructions per nanosecond across the
	// 64-core system — the §6.2 metric, and the first default objective.
	Performance float64 `json:"performance"`
	// DevicePower is system device power (core + NoC share), relative
	// to the 300 K baseline core.
	DevicePower float64 `json:"device_power"`
	// CoolingOverhead is CO(T): compressor watts per device watt.
	CoolingOverhead float64 `json:"cooling_overhead"`
	// TotalPower is device power burdened with the cryocooler (Eq. 2) —
	// the watts objective.
	TotalPower float64 `json:"total_power"`
	// PerfPerWatt is Performance / TotalPower (the Fig 27(a) metric).
	PerfPerWatt float64 `json:"perf_per_watt"`
	// Energy is cooling-adjusted energy per unit of work:
	// TotalPower / Performance — the third default objective.
	Energy float64 `json:"energy"`
}

// Objective is one optimization axis over evaluated candidates.
type Objective struct {
	// Name identifies the objective in reports and journal keys.
	Name string
	// Maximize is true when larger values win.
	Maximize bool
	// Value extracts the objective's scalar from an evaluation.
	Value func(Eval) float64
}

// Built-in objectives.
var (
	// PerformanceObjective maximizes system performance (instr/ns).
	PerformanceObjective = Objective{Name: "performance", Maximize: true, Value: func(e Eval) float64 { return e.Performance }}
	// TotalPowerObjective minimizes cooling-inclusive watts.
	TotalPowerObjective = Objective{Name: "total_power", Maximize: false, Value: func(e Eval) float64 { return e.TotalPower }}
	// EnergyObjective minimizes cooling-adjusted energy per instruction.
	EnergyObjective = Objective{Name: "energy", Maximize: false, Value: func(e Eval) float64 { return e.Energy }}
)

// DefaultObjectives is the frontier the paper's trade-off studies span:
// performance vs watts vs cooling-adjusted energy.
func DefaultObjectives() []Objective {
	return []Objective{PerformanceObjective, TotalPowerObjective, EnergyObjective}
}

// nocPowerShare scales the relative NoC power (normalized to the 300 K
// mesh) into core-relative units when composing system device power:
// the uncore interconnect is a minority share of the 300 K system
// budget (Fig 22 discussion).
const nocPowerShare = 0.15

// nocPowerKind maps a candidate's interconnect and temperature onto the
// Fig 22 power-model design whose voltage/activity recipe it runs.
func nocPowerKind(pt Point) power.NoCKind {
	cold := pt.TempK < float64(phys.T300)
	switch pt.Net {
	case NetSharedBus:
		return power.SharedBus77
	case NetCryoBus, NetCryoBus2Way:
		return power.CryoBus77
	default:
		if cold {
			return power.Mesh77
		}
		return power.Mesh300
	}
}

// evalCores is the evaluated system size (the paper's 64-core target).
const evalCores = 64

// candidateDesign derives the system a candidate simulates: the core at
// the point's depth/voltage and the design on the platform's NoC
// timings. The returned CoreSpec feeds finishEval's power metrics.
func candidateDesign(pf *platform.Platform, pt Point) (sim.Design, pipeline.CoreSpec, error) {
	nomOp, err := pf.OpAt(pt.TempK)
	if err != nil {
		return sim.Design{}, pipeline.CoreSpec{}, fmt.Errorf("dse: point %s: %w", pt, err)
	}
	op, sizing, err := modeOp(pt.Mode, pt.TempK)
	if err != nil {
		return sim.Design{}, pipeline.CoreSpec{}, err
	}
	core, err := pf.DerivedCore(pt.Depth-pipeline.BaseDepth(), nomOp, op, sizing)
	if err != nil {
		return sim.Design{}, pipeline.CoreSpec{}, fmt.Errorf("dse: point %s: %w", pt, err)
	}
	kind, err := netKindByName(pt.Net)
	if err != nil {
		return sim.Design{}, pipeline.CoreSpec{}, err
	}
	var timing = pf.BusTiming(nomOp)
	if kind == sim.Mesh {
		timing = pf.MeshTiming(nomOp, 1)
	}
	memT := pt.TempK
	if pt.StageK > 0 {
		// Multi-stage candidate: the memory hierarchy runs on its own
		// stage's temperature, not the tier's.
		memT = pt.StageK
	}
	d := sim.Design{
		Name:   pt.String(),
		Core:   core,
		Net:    kind,
		NoC:    timing,
		Memory: mem.ForTemp(phys.Kelvin(memT)),
		Cores:  evalCores,
	}
	return d, core, nil
}

// finishEval attaches the cooling-inclusive power metrics to a
// candidate's simulation result.
func finishEval(pf *platform.Platform, pt Point, core pipeline.CoreSpec, res sim.Result) (Eval, error) {
	pw := pf.PowerModel()
	e := Eval{
		FreqGHz:         core.FreqGHz,
		IPC:             res.IPC,
		Performance:     res.Performance,
		CoolingOverhead: pw.Cooling.Overhead(phys.Kelvin(pt.TempK)),
	}
	e.DevicePower = pw.CorePower(core) + nocPowerShare*pw.NoCPower(nocPowerKind(pt))
	e.TotalPower = e.DevicePower * (1 + e.CoolingOverhead)
	if pt.StageK > 0 {
		// Multi-stage candidate: lift the tier's device power through
		// the staged cooling chain (per-stage Carnot overheads + cable
		// heatloads) instead of the flat (1+CO) product, and report the
		// chain's effective overhead. Space.Validate guarantees the
		// temperatures are chain-legal, so validated spaces never see
		// the error.
		_, wall, err := stage.TierWall(pw.Cooling, e.DevicePower*stage.DefaultWattsPerUnit, pt.TempK, pt.StageK)
		if err != nil {
			return Eval{}, fmt.Errorf("dse: point %s: %w", pt, err)
		}
		e.TotalPower = wall / stage.DefaultWattsPerUnit
		e.CoolingOverhead = e.TotalPower/e.DevicePower - 1
	}
	if e.Performance > 0 && e.TotalPower > 0 {
		e.PerfPerWatt = e.Performance / e.TotalPower
		e.Energy = e.TotalPower / e.Performance
	}
	return e, nil
}

// evaluations counts the candidates evaluate has started, so tests can
// see that a journal replay or a canceled search simulated nothing.
var evaluations atomic.Int64

// evaluate runs one candidate end to end: candidateDesign → System.Run
// → finishEval. Deterministic: the simulator seeds from cfg alone, so
// equal (point, cfg) pairs produce bit-equal Evals at any worker count.
func evaluate(ctx context.Context, pf *platform.Platform, pt Point, prof workload.Profile, cfg sim.Config) (Eval, error) {
	evaluations.Add(1)
	d, core, err := candidateDesign(pf, pt)
	if err != nil {
		return Eval{}, err
	}
	if ctx != nil {
		cfg = cfg.WithContext(ctx)
	}
	s, err := sim.New(d, prof, cfg)
	if err != nil {
		return Eval{}, fmt.Errorf("dse: point %s: %w", pt, err)
	}
	res, err := s.Run()
	if err != nil {
		return Eval{}, fmt.Errorf("dse: point %s: %w", pt, err)
	}
	return finishEval(pf, pt, core, res)
}

// evaluateFresh evaluates the non-served candidates of one strategy
// batch into evals/errs (index-aligned with fresh) on a pool of
// cfg.Workers goroutines, each pulling the next candidate as it frees
// up. It returns ctx's error when the search was canceled, in which
// case unstarted slots are left empty.
func evaluateFresh(ctx context.Context, cfg Config, fresh []int, served []bool, evals []Eval, errs []error) error {
	return par.ForCtx(ctx, len(fresh), cfg.Workers, func(k int) {
		if served[k] {
			return
		}
		pt := cfg.Space.At(fresh[k])
		prof, err := cfg.Space.profileByName(pt.Workload)
		if err != nil {
			errs[k] = err
			return
		}
		evals[k], errs[k] = evaluate(ctx, cfg.Platform, pt, prof, cfg.Sim)
	})
}
