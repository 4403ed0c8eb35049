package stage

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cryowire/internal/mem"
	"cryowire/internal/phys"
	"cryowire/internal/pipeline"
	"cryowire/internal/platform"
	"cryowire/internal/power"
	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

// nocPowerShare scales relative NoC power into core-relative units
// when composing tier device power: the uncore interconnect is a
// minority share of the 300 K system budget (Fig 22 discussion).
const nocPowerShare = 0.15

// TierDevicePower is the device power of a tier of cores on net at
// tierK, relative to the 300 K baseline core: the core's power plus the
// NoC's share, the NoC priced as the Fig 22 power-model design whose
// voltage/activity recipe it runs. Sweep and the DSE evaluator both
// compose tier power here.
func TierDevicePower(pw *power.Model, core pipeline.CoreSpec, tierK float64, net sim.NetKind) float64 {
	var kind power.NoCKind
	switch {
	case net == sim.SharedBus:
		kind = power.SharedBus77
	case net == sim.CryoBus || net == sim.CryoBus2Way:
		kind = power.CryoBus77
	case tierK < float64(phys.T300):
		kind = power.Mesh77
	default:
		kind = power.Mesh300
	}
	return pw.CorePower(core) + nocPowerShare*pw.NoCPower(kind)
}

// Assignment places the movable components of the target system onto
// temperature stages. The host (I/O, clocking, service processor)
// always stays at 300 K; the CryoSP tier (cores + NoC) and the memory
// hierarchy each pick a stage.
type Assignment struct {
	// Name labels the assignment in reports.
	Name string `json:"name"`
	// TierK is the CryoSP-tier (cores + NoC) stage temperature.
	TierK float64 `json:"tier_k"`
	// MemK is the memory-hierarchy stage temperature.
	MemK float64 `json:"mem_k"`
}

// DefaultAssignments returns the three canonical stage assignments the
// acceptance study compares: everything warm, the paper's 77 K CryoSP
// system, and the liquid-helium split that answers the 4 K question.
func DefaultAssignments() []Assignment {
	return []Assignment{
		{Name: "all-300K", TierK: 300, MemK: 300},
		{Name: "77K-cryosp", TierK: 77, MemK: 77},
		{Name: "77K+4K-split", TierK: 4, MemK: 77},
	}
}

// Validate checks the assignment: physical temperatures no warmer
// than the 300 K host. Tier and memory may sit in either order — the
// cable chain runs warmest-to-coldest through whatever stages exist
// (a CryoCache-style cold-memory/warm-core split is as expressible as
// the cold-tier split).
func (a Assignment) Validate() error {
	for _, t := range []float64{a.TierK, a.MemK} {
		if err := phys.ValidTemperature(phys.Kelvin(t)); err != nil {
			return fmt.Errorf("stage: assignment %s: %w", a.Name, err)
		}
		if t > 300 {
			return fmt.Errorf("stage: assignment %s: stage at %g K above the 300 K host", a.Name, t)
		}
	}
	return nil
}

// Absolute-watts conversion and the canonical cable plant. The power
// model works in units of the 300 K baseline core's device power;
// cable heat is physical milliwatts, so the staged model needs a
// scale: one relative unit ≈ a 100 W 64-core package.
const (
	// DefaultWattsPerUnit converts power-model relative units to watts.
	DefaultWattsPerUnit = 100.0

	// hostShare and memShare are the host and memory device powers in
	// relative units. The host electronics are a quarter of the
	// baseline package; the memory hierarchy (L3 + DRAM io) a third.
	// Both are held temperature-independent — activate/IO energy
	// dominates and the paper's memory speedups come from latency, not
	// power, scaling.
	hostShare = 0.25
	memShare  = 0.30

	// The host↔cold trunk: one BeCu coax lane per core, a 1 m run from
	// the 300 K flange. The intra-cryostat mem↔tier link is shorter and
	// wider (a data bus, not a control trunk).
	hostCableLanes = 64
	hostCableLenM  = 1.0
	memCableLanes  = 128
	memCableLenM   = 0.30

	// signalWattsPerLane is the driver dissipation charged to each
	// lane's cold termination.
	signalWattsPerLane = 2e-3
)

// chainCable builds the canonical cable for one hop of the cooling
// chain. The first hop (from the 300 K flange) is the host trunk;
// colder hops are the wide short memory link.
func chainCable(hotK, coldK phys.Kelvin, fromHost bool) Cable {
	c := Cable{
		Name:     fmt.Sprintf("%gK->%gK", float64(hotK), float64(coldK)),
		Material: BeCuCoax,
		HotK:     hotK,
		ColdK:    coldK,
		LengthM:  memCableLenM,
		Lanes:    memCableLanes,
	}
	if fromHost {
		c.LengthM = hostCableLenM
		c.Lanes = hostCableLanes
	}
	c.SignalWatts = float64(c.Lanes) * signalWattsPerLane
	return c
}

// BuildSystem constructs the temperature-staged System of an
// assignment: a host stage at 300 K, plus stages for the memory and
// tier temperatures (merged when equal), sorted warmest-to-coldest
// and connected by the canonical cable chain. tierWatts is the CryoSP
// tier's device power in watts; host and memory components are the
// fixed shares scaled by wattsPerUnit (pass 0 to omit them — the DSE
// uses that to lift tier-only device power).
func BuildSystem(a Assignment, tierWatts, wattsPerUnit float64) (*System, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	byTemp := map[float64][]Component{
		300: {{Name: "host", DeviceWatts: hostShare * wattsPerUnit}},
	}
	byTemp[a.MemK] = append(byTemp[a.MemK], Component{Name: "memory", DeviceWatts: memShare * wattsPerUnit})
	byTemp[a.TierK] = append(byTemp[a.TierK], Component{Name: "cryosp-tier", DeviceWatts: tierWatts})
	temps := make([]float64, 0, len(byTemp))
	for t := range byTemp {
		temps = append(temps, t)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(temps)))
	sys := &System{}
	for i, t := range temps {
		name := fmt.Sprintf("%gK host", t)
		if t != 300 {
			var roles []string
			for _, c := range byTemp[t] {
				switch c.Name {
				case "memory":
					roles = append(roles, "memory")
				case "cryosp-tier":
					roles = append(roles, "tier")
				}
			}
			name = fmt.Sprintf("%gK %s", t, strings.Join(roles, "+"))
		}
		sys.Stages = append(sys.Stages, Stage{Name: name, TempK: phys.Kelvin(t), Components: byTemp[t]})
		if i > 0 {
			sys.Cables = append(sys.Cables,
				chainCable(sys.Stages[i-1].TempK, sys.Stages[i].TempK, i == 1))
		}
	}
	return sys, nil
}

// TierWall lifts a tier device power (in watts) through the staged
// cooling chain of an assignment — host and memory device components
// omitted, cables included — and returns the per-stage breakdown plus
// total wall watts. This is the staged replacement for the flat
// P·(1+CO) lift: the DSE's stage-temperature axis prices candidates
// with it.
func TierWall(cool phys.CoolingModel, tierWatts float64, tierK, memK float64) ([]Breakdown, float64, error) {
	sys, err := BuildSystem(Assignment{Name: "tier", TierK: tierK, MemK: memK}, tierWatts, 0)
	if err != nil {
		return nil, 0, err
	}
	sys.Cooling = cool
	return sys.WallPower()
}

// --- sim-backed sweep -------------------------------------------------------

// SweepOptions tunes a staged sweep.
type SweepOptions struct {
	// Platform supplies the calibrated models; nil uses Default.
	Platform *platform.Platform
	// Sim is the simulation config (run lengths, seed).
	Sim sim.Config
	// Workload names the profile to evaluate on; "" picks x264 (the
	// quick-space canonical workload).
	Workload string
	// Workers bounds concurrent simulations.
	Workers int
	// WattsPerUnit converts relative device power to watts; 0 uses
	// DefaultWattsPerUnit.
	WattsPerUnit float64
}

// AssignmentReport is one assignment's cooling-inclusive scorecard.
type AssignmentReport struct {
	Name  string  `json:"name"`
	TierK float64 `json:"tier_k"`
	MemK  float64 `json:"mem_k"`
	// FreqGHz is the derived tier core clock; IPC and Performance come
	// from full-system simulation (instr/ns across 64 cores).
	FreqGHz     float64 `json:"freq_ghz"`
	IPC         float64 `json:"ipc"`
	Performance float64 `json:"performance"`
	// DeviceWatts is total component heat (host + memory + tier);
	// WallWatts adds cable loads and every stage's cooling overhead.
	DeviceWatts float64     `json:"device_watts"`
	WallWatts   float64     `json:"wall_watts"`
	Stages      []Breakdown `json:"stages"`
	// PerfPerWatt is Performance / WallWatts — the metric that decides
	// whether an assignment survives its cooling bill.
	PerfPerWatt float64 `json:"perf_per_watt"`
}

// SweepResult is the full staged-sweep report.
type SweepResult struct {
	Workload     string             `json:"workload"`
	WattsPerUnit float64            `json:"watts_per_unit"`
	Assignments  []AssignmentReport `json:"assignments"`
}

// JSON renders the result as stable indented JSON: field order follows
// the structs and assignments keep submission order, so equal results
// encode to byte-identical documents (the CLI ↔ server contract).
func (r *SweepResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render returns the result as a fixed-width text report: a summary
// table plus a per-stage heatload breakdown.
func (r *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== stage sweep: cooling-inclusive perf/W on %s (1 unit = %g W) ==\n", r.Workload, r.WattsPerUnit)
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %7s %10s %11s %11s %12s\n",
		"assignment", "tier K", "mem K", "GHz", "IPC", "perf i/ns", "device W", "wall W", "perf/W")
	for _, a := range r.Assignments {
		fmt.Fprintf(&b, "%-14s %8g %8g %8.2f %7.3f %10.2f %11.2f %11.2f %12.5f\n",
			a.Name, a.TierK, a.MemK, a.FreqGHz, a.IPC, a.Performance, a.DeviceWatts, a.WallWatts, a.PerfPerWatt)
	}
	b.WriteString("\nper-stage heatload breakdown:\n")
	fmt.Fprintf(&b, "%-14s %-12s %10s %10s %10s %10s %9s %11s\n",
		"assignment", "stage", "device W", "leak W", "signal W", "heat W", "CO", "wall W")
	for _, a := range r.Assignments {
		for _, s := range a.Stages {
			fmt.Fprintf(&b, "%-14s %-12s %10.3f %10.4f %10.3f %10.3f %9.2f %11.2f\n",
				a.Name, s.Stage, s.DeviceWatts, s.CableLeakWatts, s.CableSignalWatts, s.HeatloadWatts, s.CoolingOverhead, s.WallWatts)
		}
	}
	return b.String()
}

// tierDesign derives the simulated system of an assignment: the 300 K
// tier runs the baseline Skylake-class core on the mesh; a cryogenic
// tier runs the full CryoSP recipe (max frontend splits, CryoSP
// voltage, CryoCore sizing) re-derived at the tier temperature on
// CryoBus. Memory follows the memory stage.
func tierDesign(pf *platform.Platform, a Assignment, prof workload.Profile, cfg sim.Config) (sim.LaneSpec, pipeline.CoreSpec, error) {
	nomOp, err := pf.OpAt(a.TierK)
	if err != nil {
		return sim.LaneSpec{}, pipeline.CoreSpec{}, fmt.Errorf("stage: assignment %s: %w", a.Name, err)
	}
	var (
		core pipeline.CoreSpec
		kind sim.NetKind
		noc  = pf.MeshTiming(nomOp, 1)
	)
	if a.TierK >= 300 {
		core = pf.Baseline300()
		kind = sim.Mesh
	} else {
		op := phys.OperatingPoint{T: phys.Kelvin(a.TierK), Vdd: pipeline.CryoSPVoltage.Vdd, Vth: pipeline.CryoSPVoltage.Vth}
		core, err = pf.DerivedCore(pipeline.MaxFrontendSplits(), nomOp, op, pipeline.CryoCoreSizing)
		if err != nil {
			return sim.LaneSpec{}, pipeline.CoreSpec{}, fmt.Errorf("stage: assignment %s: %w", a.Name, err)
		}
		kind = sim.CryoBus
		noc = pf.BusTiming(nomOp)
	}
	d := sim.Design{
		Name:   a.Name,
		Core:   core,
		Net:    kind,
		NoC:    noc,
		Memory: mem.ForTemp(phys.Kelvin(a.MemK)),
		Cores:  64,
	}
	return sim.LaneSpec{Design: d, Profile: prof, Config: cfg}, core, nil
}

// Sweep evaluates the assignments with full simulation — all specs
// through one BatchRunner call — and prices each through its staged
// cooling chain. Deterministic: equal (assignments, options) produce
// byte-identical JSON at any worker count.
func Sweep(ctx context.Context, assigns []Assignment, opt SweepOptions) (*SweepResult, error) {
	if len(assigns) == 0 {
		assigns = DefaultAssignments()
	}
	pf := opt.Platform
	if pf == nil {
		pf = platform.Default()
	}
	wname := opt.Workload
	if wname == "" {
		wname = "x264"
	}
	prof, err := workload.ByName(wname)
	if err != nil {
		return nil, err
	}
	wpu := opt.WattsPerUnit
	if wpu == 0 {
		wpu = DefaultWattsPerUnit
	}
	cfg := opt.Sim
	if cfg.MeasureCycles == 0 {
		cfg = sim.DefaultConfig()
	}

	specs := make([]sim.LaneSpec, len(assigns))
	cores := make([]pipeline.CoreSpec, len(assigns))
	for i, a := range assigns {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		specs[i], cores[i], err = tierDesign(pf, a, prof, cfg)
		if err != nil {
			return nil, err
		}
	}
	runner := &sim.BatchRunner{Workers: opt.Workers}
	results, errs := runner.RunCtx(ctx, specs)
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	pw := pf.PowerModel()
	out := &SweepResult{Workload: wname, WattsPerUnit: wpu}
	for i, a := range assigns {
		tierUnits := TierDevicePower(pw, cores[i], a.TierK, specs[i].Design.Net)
		sys, err := BuildSystem(a, tierUnits*wpu, wpu)
		if err != nil {
			return nil, err
		}
		sys.Cooling = pw.Cooling
		stages, wall, err := sys.WallPower()
		if err != nil {
			return nil, err
		}
		rep := AssignmentReport{
			Name: a.Name, TierK: a.TierK, MemK: a.MemK,
			FreqGHz:     cores[i].FreqGHz,
			IPC:         results[i].IPC,
			Performance: results[i].Performance,
			WallWatts:   wall,
			Stages:      stages,
		}
		for _, s := range stages {
			rep.DeviceWatts += s.DeviceWatts
		}
		if wall > 0 {
			rep.PerfPerWatt = rep.Performance / wall
		}
		out.Assignments = append(out.Assignments, rep)
	}
	return out, nil
}
