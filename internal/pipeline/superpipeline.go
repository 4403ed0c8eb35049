package pipeline

import (
	"fmt"

	"cryowire/internal/phys"
)

// SuperpipelineResult describes the outcome of applying the §4.4
// frontend-superpipelining methodology at an operating point.
type SuperpipelineResult struct {
	Pipeline Pipeline
	// Target is the superpipelining target latency: the slowest
	// un-pipelinable backend stage at the operating point.
	Target      float64
	TargetStage string
	// SplitStages names the frontend stages that were split because
	// their delay exceeded the target.
	SplitStages []string
}

// Superpipeline applies the paper's methodology: (1) take the longest
// un-pipelinable backend latency as the target, (2) split every
// frontend stage whose delay exceeds the target, (3) leave everything
// else alone. At 300 K no frontend stage exceeds the backend bottleneck
// so nothing is split — "further frontend pipelining is meaningless at
// 300 K"; at 77 K fetch1, fetch3 and decode&rename split, producing the
// 16 representative stages (17 deep) of CryoSP.
func (md *Model) Superpipeline(p Pipeline, op phys.OperatingPoint) SuperpipelineResult {
	res := SuperpipelineResult{Target: 0}
	sc := md.scaleAt(op)
	// Step 1: target = slowest un-pipelinable backend stage.
	for _, s := range p.Stages {
		if s.Frontend || s.Pipelinable {
			continue
		}
		if d := sc.delay(s); d > res.Target {
			res.Target = d
			res.TargetStage = s.Name
		}
	}
	// Step 2: split frontend stages exceeding the target.
	out := Pipeline{
		Name:  p.Name + "+superpipelined",
		Depth: p.Depth,
	}
	for _, s := range p.Stages {
		if s.Frontend && s.Pipelinable && len(s.Split) > 0 && sc.delay(s) > res.Target {
			out.Stages = append(out.Stages, s.Split...)
			out.Depth += len(s.Split) - 1
			res.SplitStages = append(res.SplitStages, s.Name)
			continue
		}
		out.Stages = append(out.Stages, s)
	}
	res.Pipeline = out
	return res
}

// At77 is the nominal-voltage 77 K operating point.
func At77() phys.OperatingPoint {
	return phys.OperatingPoint{T: phys.T77, Vdd: phys.Nominal45.Vdd, Vth: phys.Nominal45.Vth}
}

// CoreSpec is a complete core configuration (one column of Table 3).
type CoreSpec struct {
	Name     string
	FreqGHz  float64
	Depth    int // pipeline depth
	Width    int // issue width
	LoadQ    int
	StoreQ   int
	IssueQ   int
	ROB      int
	IntRegs  int
	FpRegs   int
	Op       phys.OperatingPoint
	Pipeline Pipeline
	// MispredictPenalty is the frontend refill cost in cycles on a
	// branch mispredict — grows with the superpipelined depth and is
	// what costs CryoSP its 4.2 % IPC (§4.4).
	MispredictPenalty int
}

// skylakeSizing fills the Table 3 "300K Baseline" structure sizes.
func skylakeSizing(c *CoreSpec) {
	c.Width = 8
	c.LoadQ, c.StoreQ = 72, 56
	c.IssueQ, c.ROB = 97, 224
	c.IntRegs, c.FpRegs = 180, 168
}

// cryoCoreSizing halves the machine per the CryoCore recipe [16]
// (Table 3 "+CryoCore" column).
func cryoCoreSizing(c *CoreSpec) {
	c.Width = 4
	c.LoadQ, c.StoreQ = 24, 24
	c.IssueQ, c.ROB = 72, 96
	c.IntRegs, c.FpRegs = 100, 96
}

// mispredictPenalty maps pipeline depth to the frontend refill cost.
func mispredictPenalty(depth int) int { return depth - 2 }

// Baseline300 returns the 4 GHz 300 K Skylake-class baseline core.
func Baseline300(md *Model) CoreSpec {
	p := BOOM()
	c := CoreSpec{
		Name:     "300K Baseline",
		Op:       phys.Nominal45,
		Pipeline: p,
		Depth:    p.Depth,
	}
	skylakeSizing(&c)
	c.FreqGHz = md.MaxFrequencyGHz(p, c.Op)
	c.MispredictPenalty = mispredictPenalty(c.Depth)
	return c
}

// Superpipeline77 returns the "77K Superpipeline" column: the baseline
// machine with the frontend superpipelined at 77 K, nominal voltage.
func Superpipeline77(md *Model) CoreSpec {
	op := At77()
	res := md.Superpipeline(BOOM(), op)
	c := CoreSpec{
		Name:     "77K Superpipeline",
		Op:       op,
		Pipeline: res.Pipeline,
		Depth:    res.Pipeline.Depth,
	}
	skylakeSizing(&c)
	c.FreqGHz = md.MaxFrequencyGHz(res.Pipeline, op)
	c.MispredictPenalty = mispredictPenalty(c.Depth)
	return c
}

// SuperpipelineCryoCore77 returns the "77K Superpipeline + CryoCore"
// column: same frequency, halved machine for power.
func SuperpipelineCryoCore77(md *Model) CoreSpec {
	c := Superpipeline77(md)
	c.Name = "77K Superpipeline+CryoCore"
	cryoCoreSizing(&c)
	return c
}

// CryoSPVoltage is the Vdd/Vth point of the final CryoSP design
// (Table 3): feasible only at 77 K thanks to the collapsed leakage.
var CryoSPVoltage = phys.OperatingPoint{T: phys.T77, Vdd: 0.64, Vth: 0.25}

// CHPVoltage is the CHP-core voltage point from CryoCore [16].
var CHPVoltage = phys.OperatingPoint{T: phys.T77, Vdd: 0.75, Vth: 0.25}

// CryoSP returns the paper's final core: superpipelined frontend,
// CryoCore sizing, and Vdd/Vth scaling (≈7.84 GHz).
func CryoSP(md *Model) CoreSpec {
	res := md.Superpipeline(BOOM(), At77())
	c := CoreSpec{
		Name:     "77K CryoSP",
		Op:       CryoSPVoltage,
		Pipeline: res.Pipeline,
		Depth:    res.Pipeline.Depth,
	}
	cryoCoreSizing(&c)
	c.FreqGHz = md.MaxFrequencyGHz(res.Pipeline, c.Op)
	c.MispredictPenalty = mispredictPenalty(c.Depth)
	return c
}

// CHPCore returns the state-of-the-art comparison core from [16]:
// CryoCore sizing and voltage scaling but the original 14-stage
// pipeline (no superpipelining — that is CryoWire's contribution).
func CHPCore(md *Model) CoreSpec {
	p := BOOM()
	c := CoreSpec{
		Name:     "CHP-core",
		Op:       CHPVoltage,
		Pipeline: p,
		Depth:    p.Depth,
	}
	cryoCoreSizing(&c)
	c.FreqGHz = md.MaxFrequencyGHz(p, c.Op)
	c.MispredictPenalty = mispredictPenalty(c.Depth)
	return c
}

// Validate sanity-checks a core spec.
func (c CoreSpec) Validate() error {
	switch {
	case c.FreqGHz <= 0:
		return fmt.Errorf("pipeline: %s has non-positive frequency", c.Name)
	case c.Width < 1:
		return fmt.Errorf("pipeline: %s has width %d", c.Name, c.Width)
	case c.Depth < len(c.Pipeline.Stages)/2:
		return fmt.Errorf("pipeline: %s depth %d inconsistent with %d stages", c.Name, c.Depth, len(c.Pipeline.Stages))
	}
	return c.Op.Valid()
}
