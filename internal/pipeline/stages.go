// Package pipeline models the critical-path delay of a BOOM-like
// out-of-order CPU pipeline across temperature and voltage (§3–§4).
// Each of the 13 representative stages carries a transistor-delay and a
// wire-delay component (normalized so the slowest 300 K stage is 1.0);
// cooling shrinks the two components differently — transistors by the
// MOSFET model, wires by the wire model — which is what moves the
// bottleneck from the backend forwarding stages to the frontend at 77 K
// and makes frontend superpipelining profitable (CryoSP).
//
// The per-stage split and the transistor/wire decomposition substitute
// for the paper's Design Compiler synthesis of BOOM; the component
// values are calibrated against Fig 12 (300 K shape, wire portions) and
// validated against every downstream anchor (19 % max-path reduction at
// 77 K, 38 % after superpipelining, CryoSP at 7.84 GHz).
package pipeline

import (
	"fmt"

	"cryowire/internal/phys"
	"cryowire/internal/wire"
)

// WireKind classifies the wiring a stage's critical path runs through.
type WireKind int

const (
	// ShortWire: intra-unit local wiring only (most frontend logic);
	// modest cryogenic gains.
	ShortWire WireKind = iota
	// LongWire: long inter-unit semi-global wires — forwarding loops,
	// CAM broadcast, SRAM bitlines; large cryogenic gains (≈2.8× at 77K).
	LongWire
)

// Stage is one pipeline stage of the critical-path model.
type Stage struct {
	Name     string
	Frontend bool
	// Pipelinable reports whether the stage can be split further
	// without breaking back-to-back execution of dependent instructions
	// (§4.2, 300 K Observation #2: the forwarding stages cannot).
	Pipelinable bool
	// Tr and Wire are the transistor and wire components of the stage's
	// 300 K critical-path delay, normalized to the slowest stage = 1.0.
	Tr, Wire float64
	Kind     WireKind
	// Split holds the stage's superpipelined replacement (two stages
	// with a flip-flop between them), for pipelinable stages.
	Split []Stage
}

// Total returns the stage's normalized delay at the 300 K nominal point.
func (s Stage) Total() float64 { return s.Tr + s.Wire }

// WireFraction returns the wire share of the stage's 300 K delay.
func (s Stage) WireFraction() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return s.Wire / t
}

// Pipeline is an ordered stage list with bookkeeping for total depth.
type Pipeline struct {
	Name string
	// Stages are the representative critical-path stages (commit is
	// excluded: BOOM commits asynchronously).
	Stages []Stage
	// Depth is the full architectural pipeline depth (Table 3 counts 14
	// for baseline BOOM including stages not in the representative set).
	Depth int
}

// boomStages is the calibrated 13-stage library: 5 frontend stages
// (overriding predictor, I-cache, branch check, decode/rename path) and
// 8 backend stages (read-after-issue BOOM backend).
func boomStages() []Stage {
	return []Stage{
		// --- frontend ---
		{
			Name: "fetch1", Frontend: true, Pipelinable: true,
			Tr: 0.78, Wire: 0.17, Kind: ShortWire,
			Split: []Stage{
				{Name: "fetch1a:btb+fast-pred", Frontend: true, Tr: 0.42, Wire: 0.10, Kind: ShortWire},
				{Name: "fetch1b:icache-decode", Frontend: true, Tr: 0.41, Wire: 0.09, Kind: ShortWire},
			},
		},
		{
			// I-cache data access: SRAM bitlines/wordlines are long wires.
			Name: "fetch2", Frontend: true, Pipelinable: true,
			Tr: 0.57, Wire: 0.21, Kind: LongWire,
		},
		{
			Name: "fetch3", Frontend: true, Pipelinable: true,
			Tr: 0.74, Wire: 0.18, Kind: ShortWire,
			Split: []Stage{
				{Name: "fetch3a:branch-decode", Frontend: true, Tr: 0.41, Wire: 0.09, Kind: ShortWire},
				{Name: "fetch3b:address-check", Frontend: true, Tr: 0.42, Wire: 0.10, Kind: ShortWire},
			},
		},
		{
			Name: "decode&rename", Frontend: true, Pipelinable: true,
			Tr: 0.74, Wire: 0.16, Kind: ShortWire,
			Split: []Stage{
				{Name: "decode&rename-a:instr-decode", Frontend: true, Tr: 0.41, Wire: 0.09, Kind: ShortWire},
				{Name: "decode&rename-b:dependency-check", Frontend: true, Tr: 0.42, Wire: 0.10, Kind: ShortWire},
			},
		},
		{
			Name: "rename&dispatch", Frontend: true, Pipelinable: true,
			Tr: 0.57, Wire: 0.15, Kind: ShortWire,
		},
		// --- backend ---
		{
			// CAM broadcast across the issue queue: wire heavy.
			Name: "wakeup&select", Tr: 0.47, Wire: 0.41, Kind: LongWire,
		},
		{
			Name: "issue&regread", Tr: 0.52, Wire: 0.30, Kind: LongWire,
		},
		{
			// Operand pick between regfile value and in-flight bypass:
			// rides the full forwarding loop. Un-pipelinable.
			Name: "data read from bypass", Tr: 0.41, Wire: 0.55, Kind: LongWire,
		},
		{
			Name: "execute", Tr: 0.56, Wire: 0.22, Kind: LongWire,
		},
		{
			// Drive the result onto the bypass network for dependent
			// instructions. The 300 K frequency limiter. Un-pipelinable.
			Name: "execute bypass", Tr: 0.46, Wire: 0.54, Kind: LongWire,
		},
		{
			Name: "writeback", Tr: 0.40, Wire: 0.58, Kind: LongWire,
		},
		{
			Name: "wakeup from writeback", Tr: 0.49, Wire: 0.41, Kind: LongWire,
		},
		{
			// Load/store queue address CAM search.
			Name: "LSQ", Tr: 0.46, Wire: 0.39, Kind: LongWire,
		},
	}
}

// BOOM returns the baseline pipeline: BOOM's microarchitecture with
// Intel Skylake's sizing (Table 3, 300 K Baseline), 14 stages deep.
func BOOM() Pipeline {
	return Pipeline{Name: "BOOM-Skylake-8i", Stages: boomStages(), Depth: 14}
}

// Model evaluates stage delays at operating points around one MOSFET
// card. It holds no other state, so one Model is safely shared by every
// runner of a Platform.
type Model struct {
	MOSFET *phys.MOSFET
}

// NewModel builds a pipeline delay model around the MOSFET card.
func NewModel(m *phys.MOSFET) *Model { return &Model{MOSFET: m} }

// shortWireLenMM is the representative intra-unit local-wire run whose
// speed-up scales the ShortWire stage components.
const shortWireLenMM = 0.3

// WireSpeedup returns the 300K→T wire-delay reduction for the kind.
func (md *Model) WireSpeedup(kind WireKind, t phys.Kelvin) float64 {
	switch kind {
	case LongWire:
		return wire.ForwardingSpeedup(t, md.MOSFET)
	case ShortWire:
		l := wire.NewLine(wire.Local, shortWireLenMM, 4)
		op := phys.OperatingPoint{T: t, Vdd: phys.Nominal45.Vdd, Vth: phys.Nominal45.Vth}
		return wire.Speedup(l, op, md.MOSFET, false)
	default:
		panic(fmt.Sprintf("pipeline: unknown wire kind %d", kind))
	}
}

// StageDelay returns the stage's normalized critical-path delay at op:
// the transistor part scales with the MOSFET gate-delay factor (both
// temperature and voltage), the wire part with the wire speed-up
// (temperature only — the bypass and CAM wires are RC-limited).
func (md *Model) StageDelay(s Stage, op phys.OperatingPoint) float64 {
	return md.scaleAt(op).delay(s)
}

// stageScale holds the three factors an operating point applies to
// every stage. Loops over a pipeline's stages derive it once, so a
// pipeline evaluation costs three device derivations, not three per
// stage.
type stageScale struct {
	gate float64
	wire [2]float64 // speed-up per WireKind
}

func (md *Model) scaleAt(op phys.OperatingPoint) stageScale {
	return stageScale{
		gate: md.MOSFET.GateDelayFactor(op),
		wire: [2]float64{
			ShortWire: md.WireSpeedup(ShortWire, op.T),
			LongWire:  md.WireSpeedup(LongWire, op.T),
		},
	}
}

// delay is StageDelay at the operating point sc was derived for.
func (sc stageScale) delay(s Stage) float64 {
	return s.Tr*sc.gate + s.Wire/sc.wire[s.Kind]
}

// CriticalPath returns the slowest stage and its delay at op.
func (md *Model) CriticalPath(p Pipeline, op phys.OperatingPoint) (Stage, float64) {
	sc := md.scaleAt(op)
	var worst Stage
	max := 0.0
	for _, s := range p.Stages {
		if d := sc.delay(s); d > max {
			max = d
			worst = s
		}
	}
	return worst, max
}

// MaxFrequencyGHz returns the clock the pipeline sustains at op, with
// the 300 K baseline anchored at 4.0 GHz (Table 3).
func (md *Model) MaxFrequencyGHz(p Pipeline, op phys.OperatingPoint) float64 {
	const baseGHz = 4.0
	_, d := md.CriticalPath(p, op)
	return baseGHz / d
}
