// Package dse is the design-space-exploration engine: it searches the
// cryogenic design space the paper explores by hand — operating
// temperature, Vdd/Vth scaling point, CryoSP pipeline depth, NoC kind
// and workload — against pluggable objectives (system performance,
// total watts including the cryocooler, cooling-adjusted energy), and
// extracts the Pareto frontier of the evaluated candidates.
//
// The engine is built from four pieces: a Space with deterministic
// mixed-radix enumeration (every candidate has a stable integer index),
// seeded search Strategies behind one interface (exhaustive grid,
// random sampling, adaptive hill-climbing), parallel candidate
// evaluation on par.ForCtx over one shared Platform, and a
// JSON-lines checkpoint journal that makes a killed run resumable —
// with the same seed a resumed run produces byte-identical output to an
// uninterrupted one, because every evaluation is a pure function of
// (point, simulation config) and the journal is only a memo of those
// values. The paper's headline CryoSP(7.84 GHz)+CryoBus design point
// falls out of the search at 77 K rather than being hard-coded.
package dse

import (
	"fmt"
	"math"
	"strings"

	"cryowire/internal/phys"
	"cryowire/internal/pipeline"
	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

// Voltage-mode names: the Vdd/Vth scaling points of the §7 study.
const (
	// ModeNominal is the nominal FreePDK45 point (1.25/0.47 V) with the
	// full Skylake-sized machine — the 300 K baseline recipe.
	ModeNominal = "nominal"
	// ModeCHP is the CryoCore/CHP scaling point (0.75/0.25 V) with the
	// halved CryoCore machine.
	ModeCHP = "chp"
	// ModeCryoSP is the aggressive CryoSP point (0.64/0.25 V) with the
	// halved CryoCore machine — feasible only where leakage collapses.
	ModeCryoSP = "cryosp"
)

// Modes lists the voltage modes in canonical order.
func Modes() []string { return []string{ModeNominal, ModeCHP, ModeCryoSP} }

// NoC-kind names accepted by a Space, in canonical order.
const (
	NetMesh        = "mesh"
	NetSharedBus   = "shared-bus"
	NetCryoBus     = "cryobus"
	NetCryoBus2Way = "cryobus-2way"
)

// Nets lists the NoC kinds in canonical order.
func Nets() []string { return []string{NetMesh, NetSharedBus, NetCryoBus, NetCryoBus2Way} }

// netKindByName maps a canonical net name to the simulator's kind.
func netKindByName(name string) (sim.NetKind, error) {
	switch name {
	case NetMesh:
		return sim.Mesh, nil
	case NetSharedBus:
		return sim.SharedBus, nil
	case NetCryoBus:
		return sim.CryoBus, nil
	case NetCryoBus2Way:
		return sim.CryoBus2Way, nil
	default:
		return 0, fmt.Errorf("dse: unknown net %q (have %s)", name, strings.Join(Nets(), ", "))
	}
}

// modeOp returns the core operating point and sizing recipe of a
// voltage mode at temperature t.
func modeOp(mode string, t float64) (phys.OperatingPoint, pipeline.Sizing, error) {
	k := phys.Kelvin(t)
	switch mode {
	case ModeNominal:
		return phys.OperatingPoint{T: k, Vdd: phys.Nominal45.Vdd, Vth: phys.Nominal45.Vth}, pipeline.SkylakeSizing, nil
	case ModeCHP:
		return phys.OperatingPoint{T: k, Vdd: pipeline.CHPVoltage.Vdd, Vth: pipeline.CHPVoltage.Vth}, pipeline.CryoCoreSizing, nil
	case ModeCryoSP:
		return phys.OperatingPoint{T: k, Vdd: pipeline.CryoSPVoltage.Vdd, Vth: pipeline.CryoSPVoltage.Vth}, pipeline.CryoCoreSizing, nil
	default:
		return phys.OperatingPoint{}, 0, fmt.Errorf("dse: unknown voltage mode %q (have %s)", mode, strings.Join(Modes(), ", "))
	}
}

// Point is one fully specified candidate design: a system the
// full-system simulator can run. Points serialize to flat JSON so the
// checkpoint journal and the frontier report stay human-readable.
type Point struct {
	// TempK is the operating temperature of cores, NoC and caches.
	TempK float64 `json:"temp_k"`
	// Mode is the Vdd/Vth scaling point ("nominal", "chp", "cryosp").
	Mode string `json:"mode"`
	// Depth is the core pipeline depth (14 = baseline BOOM up to
	// 14+MaxFrontendSplits = fully superpipelined CryoSP frontend).
	Depth int `json:"depth"`
	// Net is the interconnect kind ("mesh", "shared-bus", "cryobus",
	// "cryobus-2way").
	Net string `json:"net"`
	// Workload names the profile the candidate is evaluated on.
	Workload string `json:"workload"`
	// StageK is the memory-stage temperature of the multi-stage system
	// model: 0 (the legacy flat system — memory shares TempK, cooling
	// is the flat (1+CO) lift) or a stage temperature, in which case
	// the memory hierarchy runs at StageK and the candidate is priced
	// through the staged cooling chain (internal/stage) with per-stage
	// Carnot overheads and cable heatloads. Omitted from JSON when 0 so
	// pre-stage-axis journals replay byte-identically.
	StageK float64 `json:"stage_k,omitempty"`
}

// String renders the point as a compact design name.
func (p Point) String() string {
	if p.StageK > 0 {
		return fmt.Sprintf("%gK/%s/d%d/%s/%s/mem%gK", p.TempK, p.Mode, p.Depth, p.Net, p.Workload, p.StageK)
	}
	return fmt.Sprintf("%gK/%s/d%d/%s/%s", p.TempK, p.Mode, p.Depth, p.Net, p.Workload)
}

// Space is the searchable design space: the cross product of its five
// core axes plus the optional memory-stage temperature axis. Axes
// enumerate in fixed order (temperature outermost, stage temperature
// innermost), so every point has a stable integer index in
// [0, Size()) — the handle the strategies, the journal and the report
// all share.
type Space struct {
	// TempsK are the candidate operating temperatures (77–300 K).
	TempsK []float64 `json:"temps_k"`
	// Modes are voltage modes (see Modes).
	Modes []string `json:"modes"`
	// Depths are core pipeline depths (see pipeline.BaseDepth and
	// pipeline.MaxFrontendSplits).
	Depths []int `json:"depths"`
	// Nets are interconnect kinds (see Nets).
	Nets []string `json:"nets"`
	// Workloads are the candidate workload profiles.
	Workloads []workload.Profile `json:"-"`

	// WorkloadNames mirrors Workloads for serialization.
	WorkloadNames []string `json:"workloads"`

	// StageTempsK is the optional sixth axis: candidate memory-stage
	// temperatures of the multi-stage system model. Empty keeps the
	// legacy flat system (every point has StageK == 0) — and keeps the
	// space's canonical fingerprint unchanged, so journals written
	// before the axis existed still resume byte-identically.
	StageTempsK []float64 `json:"stage_temps_k,omitempty"`
}

// stageLen is the stage axis's mixed radix: an empty axis contributes
// radix 1 (one implicit "flat system" coordinate), which is what keeps
// legacy point indexes stable.
func (s Space) stageLen() int {
	if len(s.StageTempsK) == 0 {
		return 1
	}
	return len(s.StageTempsK)
}

// WithStages returns a copy of the space with the memory-stage
// temperature axis installed.
func (s Space) WithStages(temps []float64) Space {
	s.StageTempsK = temps
	return s
}

// DefaultSpace returns the standard search space: the §7 temperature
// grid crossed with all three voltage modes, the full depth range, all
// four interconnects and a representative PARSEC trio (quick keeps two
// temperatures, two modes, the depth extremes, two nets and one
// workload).
func DefaultSpace(quick bool) Space {
	byName := func(names ...string) []workload.Profile {
		var out []workload.Profile
		for _, n := range names {
			p, err := workload.ByName(n)
			if err != nil {
				// Unreachable: the names below are the built-in suite's.
				panic(fmt.Sprintf("dse: %v", err))
			}
			out = append(out, p)
		}
		return out
	}
	if quick {
		return NewSpace([]float64{300, 77}, []string{ModeNominal, ModeCryoSP}, []int{14, 17},
			[]string{NetMesh, NetCryoBus}, byName("x264"))
	}
	return NewSpace([]float64{300, 150, 100, 77}, Modes(), []int{14, 15, 16, 17},
		Nets(), byName("blackscholes", "streamcluster", "x264"))
}

// NewSpace assembles a space and fills the serialized workload names.
// Call Validate before searching it.
func NewSpace(temps []float64, modes []string, depths []int, nets []string, wls []workload.Profile) Space {
	s := Space{TempsK: temps, Modes: modes, Depths: depths, Nets: nets, Workloads: wls}
	for _, w := range wls {
		s.WorkloadNames = append(s.WorkloadNames, w.Name)
	}
	return s
}

// Validate checks every axis: non-empty, no duplicates, known names,
// physical temperatures, depths inside the derivable range, and — fail
// fast, the engine iterates candidates over them — every workload
// profile internally consistent.
func (s Space) Validate() error {
	if len(s.TempsK) == 0 || len(s.Modes) == 0 || len(s.Depths) == 0 || len(s.Nets) == 0 || len(s.Workloads) == 0 {
		return fmt.Errorf("dse: space has an empty axis (temps=%d modes=%d depths=%d nets=%d workloads=%d)",
			len(s.TempsK), len(s.Modes), len(s.Depths), len(s.Nets), len(s.Workloads))
	}
	seenT := make(map[float64]bool, len(s.TempsK))
	for _, t := range s.TempsK {
		if math.IsNaN(t) || t <= 0 {
			return fmt.Errorf("dse: unphysical temperature %v", t)
		}
		if seenT[t] {
			return fmt.Errorf("dse: duplicate temperature %v", t)
		}
		seenT[t] = true
	}
	seenM := make(map[string]bool, len(s.Modes))
	for _, m := range s.Modes {
		if _, _, err := modeOp(m, 300); err != nil {
			return err
		}
		if seenM[m] {
			return fmt.Errorf("dse: duplicate mode %q", m)
		}
		seenM[m] = true
	}
	minD, maxD := pipeline.BaseDepth(), pipeline.BaseDepth()+pipeline.MaxFrontendSplits()
	seenD := make(map[int]bool, len(s.Depths))
	for _, d := range s.Depths {
		if d < minD || d > maxD {
			return fmt.Errorf("dse: depth %d outside the derivable range [%d,%d]", d, minD, maxD)
		}
		if seenD[d] {
			return fmt.Errorf("dse: duplicate depth %d", d)
		}
		seenD[d] = true
	}
	seenN := make(map[string]bool, len(s.Nets))
	for _, n := range s.Nets {
		if _, err := netKindByName(n); err != nil {
			return err
		}
		if seenN[n] {
			return fmt.Errorf("dse: duplicate net %q", n)
		}
		seenN[n] = true
	}
	seenW := make(map[string]bool, len(s.Workloads))
	for _, w := range s.Workloads {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("dse: %w", err)
		}
		if seenW[w.Name] {
			return fmt.Errorf("dse: duplicate workload %q", w.Name)
		}
		seenW[w.Name] = true
	}
	if len(s.StageTempsK) > 0 {
		// Staged candidates are priced through the stage chain, whose
		// host flange is the 300 K ambient — tier temperatures above it
		// have no chain to hang from.
		for _, t := range s.TempsK {
			if t > 300 {
				return fmt.Errorf("dse: tier temperature %v above the 300 K ambient is incompatible with the stage axis", t)
			}
		}
	}
	seenS := make(map[float64]bool, len(s.StageTempsK))
	for _, t := range s.StageTempsK {
		if math.IsNaN(t) || t <= 0 {
			return fmt.Errorf("dse: unphysical stage temperature %v", t)
		}
		if t > 300 {
			return fmt.Errorf("dse: stage temperature %v above the 300 K ambient", t)
		}
		if seenS[t] {
			return fmt.Errorf("dse: duplicate stage temperature %v", t)
		}
		seenS[t] = true
	}
	if len(s.WorkloadNames) != len(s.Workloads) {
		return fmt.Errorf("dse: workload name list out of sync (use NewSpace)")
	}
	for i, w := range s.Workloads {
		if s.WorkloadNames[i] != w.Name {
			return fmt.Errorf("dse: workload name list out of sync at %d (use NewSpace)", i)
		}
	}
	return nil
}

// Size returns the number of points in the space.
func (s Space) Size() int {
	return len(s.TempsK) * len(s.Modes) * len(s.Depths) * len(s.Nets) * len(s.Workloads) * s.stageLen()
}

// At decodes index i into its point. Enumeration is mixed-radix with
// the axis order (temperature, mode, depth, net, workload), workload
// varying fastest; it depends only on the axis slices, never on
// execution order, which is what makes journaled indexes stable across
// resumed runs.
func (s Space) At(i int) Point {
	if i < 0 || i >= s.Size() {
		panic(fmt.Sprintf("dse: point index %d outside [0,%d)", i, s.Size()))
	}
	st := i % s.stageLen()
	i /= s.stageLen()
	w := i % len(s.Workloads)
	i /= len(s.Workloads)
	n := i % len(s.Nets)
	i /= len(s.Nets)
	d := i % len(s.Depths)
	i /= len(s.Depths)
	m := i % len(s.Modes)
	i /= len(s.Modes)
	p := Point{
		TempK:    s.TempsK[i],
		Mode:     s.Modes[m],
		Depth:    s.Depths[d],
		Net:      s.Nets[n],
		Workload: s.Workloads[w].Name,
	}
	if len(s.StageTempsK) > 0 {
		p.StageK = s.StageTempsK[st]
	}
	return p
}

// coords decodes index i into per-axis coordinates (same radix as At).
// The stage axis is innermost; with no stage axis its coordinate is
// always 0.
func (s Space) coords(i int) [6]int {
	var c [6]int
	c[5] = i % s.stageLen()
	i /= s.stageLen()
	c[4] = i % len(s.Workloads)
	i /= len(s.Workloads)
	c[3] = i % len(s.Nets)
	i /= len(s.Nets)
	c[2] = i % len(s.Depths)
	i /= len(s.Depths)
	c[1] = i % len(s.Modes)
	i /= len(s.Modes)
	c[0] = i
	return c
}

// axisLens returns the per-axis cardinalities in coordinate order.
func (s Space) axisLens() [6]int {
	return [6]int{len(s.TempsK), len(s.Modes), len(s.Depths), len(s.Nets), len(s.Workloads), s.stageLen()}
}

// normCoords maps index i onto the unit 6-cube the surrogate
// interpolates over: each axis coordinate scaled by its cardinality
// (an axis of one collapses to 0, contributing nothing to distances).
// Positions, not axis values, are what get normalized — the surrogate
// learns over the grid the strategies walk, so one "grid step" costs
// the same distance on every axis.
func (s Space) normCoords(i int) []float64 {
	c, lens := s.coords(i), s.axisLens()
	out := make([]float64, len(c))
	for ax := range c {
		if lens[ax] > 1 {
			out[ax] = float64(c[ax]) / float64(lens[ax]-1)
		}
	}
	return out
}

// index re-encodes coordinates into a point index.
func (s Space) index(c [6]int) int {
	return ((((c[0]*len(s.Modes)+c[1])*len(s.Depths)+c[2])*len(s.Nets)+c[3])*len(s.Workloads)+c[4])*s.stageLen() + c[5]
}

// Neighbors returns the indexes one step away from i along each axis
// (the hill-climbing move set), in ascending order without duplicates.
func (s Space) Neighbors(i int) []int {
	c := s.coords(i)
	lens := s.axisLens()
	var out []int
	seen := map[int]bool{i: true}
	for ax := 0; ax < 6; ax++ {
		for _, step := range []int{-1, 1} {
			nc := c
			nc[ax] += step
			if nc[ax] < 0 || nc[ax] >= lens[ax] {
				continue
			}
			j := s.index(nc)
			if !seen[j] {
				seen[j] = true
				out = append(out, j)
			}
		}
	}
	// The per-axis walk emits indexes out of order; sort for stable
	// proposal order.
	for a := 1; a < len(out); a++ {
		for b := a; b > 0 && out[b] < out[b-1]; b-- {
			out[b], out[b-1] = out[b-1], out[b]
		}
	}
	return out
}

// profileByName resolves a workload name inside the space.
func (s Space) profileByName(name string) (workload.Profile, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload.Profile{}, fmt.Errorf("dse: workload %q not in space", name)
}

// canonical renders the space for the journal-compatibility key: every
// axis value in order, so two spaces agree iff their searches do.
func (s Space) canonical() string {
	var b strings.Builder
	b.WriteString("temps=")
	for i, t := range s.TempsK {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", t)
	}
	fmt.Fprintf(&b, "|modes=%s", strings.Join(s.Modes, ","))
	b.WriteString("|depths=")
	for i, d := range s.Depths {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	fmt.Fprintf(&b, "|nets=%s", strings.Join(s.Nets, ","))
	fmt.Fprintf(&b, "|workloads=%s", strings.Join(s.WorkloadNames, ","))
	// The stage axis joins the fingerprint only when present: a space
	// without it renders exactly the pre-stage-axis string, which is
	// what keeps old journals resumable (their sha256 keys still match).
	if len(s.StageTempsK) > 0 {
		b.WriteString("|stages=")
		for i, t := range s.StageTempsK {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", t)
		}
	}
	return b.String()
}
