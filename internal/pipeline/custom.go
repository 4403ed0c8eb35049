package pipeline

import (
	"fmt"
	"sort"

	"cryowire/internal/phys"
)

// Sizing selects the structure-size recipe of a derived core.
type Sizing int

const (
	// SkylakeSizing is the 8-wide Table 3 baseline machine.
	SkylakeSizing Sizing = iota
	// CryoCoreSizing halves the machine per the CryoCore recipe [16].
	CryoCoreSizing
)

// String implements fmt.Stringer.
func (s Sizing) String() string {
	switch s {
	case SkylakeSizing:
		return "skylake"
	case CryoCoreSizing:
		return "cryocore"
	default:
		return fmt.Sprintf("Sizing(%d)", int(s))
	}
}

// MaxFrontendSplits reports how many frontend stages of the baseline
// pipeline superpipelining can split — the upper end of the §4 depth
// design space (BOOM's 14 stages up to CryoSP's 17).
func MaxFrontendSplits() int {
	n := 0
	for _, s := range BOOM().Stages {
		if s.Frontend && s.Pipelinable && len(s.Split) > 0 {
			n++
		}
	}
	return n
}

// BaseDepth is the unmodified baseline pipeline depth (Table 3: 14).
func BaseDepth() int { return BOOM().Depth }

// CustomCore derives a core at an arbitrary point of the §4 design
// space: split the `splits` slowest splittable frontend stages (ranked
// at analysisOp, the nominal-voltage point the superpipelining
// methodology analyzes), apply the sizing recipe, and clock the result
// at op. splits=0 keeps the unmodified baseline pipeline;
// splits=MaxFrontendSplits() at the 77 K analysis point with
// CryoSPVoltage and CryoCoreSizing reproduces CryoSP exactly (same
// stage set, same frequency), because at 77 K every splittable frontend
// stage exceeds the backend superpipelining target.
func CustomCore(md *Model, splits int, analysisOp, op phys.OperatingPoint, sz Sizing) (CoreSpec, error) {
	if max := MaxFrontendSplits(); splits < 0 || splits > max {
		return CoreSpec{}, fmt.Errorf("pipeline: splits %d outside [0,%d]", splits, max)
	}
	if err := analysisOp.Valid(); err != nil {
		return CoreSpec{}, fmt.Errorf("pipeline: analysis point: %w", err)
	}
	if err := op.Valid(); err != nil {
		return CoreSpec{}, fmt.Errorf("pipeline: operating point: %w", err)
	}
	p := BOOM()
	// Rank the splittable stages by their delay at the analysis point,
	// slowest first; ties keep pipeline order so the choice is
	// deterministic.
	type cand struct {
		idx   int
		delay float64
	}
	var cands []cand
	sc := md.scaleAt(analysisOp)
	for i, s := range p.Stages {
		if s.Frontend && s.Pipelinable && len(s.Split) > 0 {
			cands = append(cands, cand{i, sc.delay(s)})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].delay > cands[b].delay })
	chosen := make(map[int]bool, splits)
	for _, c := range cands[:splits] {
		chosen[c.idx] = true
	}
	out := Pipeline{
		Name:  fmt.Sprintf("%s+split%d", p.Name, splits),
		Depth: p.Depth,
	}
	for i, s := range p.Stages {
		if chosen[i] {
			out.Stages = append(out.Stages, s.Split...)
			out.Depth += len(s.Split) - 1
			continue
		}
		out.Stages = append(out.Stages, s)
	}
	c := CoreSpec{
		Name:     fmt.Sprintf("custom(d%d,%s,%gK)", out.Depth, sz, float64(op.T)),
		Op:       op,
		Pipeline: out,
		Depth:    out.Depth,
	}
	switch sz {
	case SkylakeSizing:
		skylakeSizing(&c)
	case CryoCoreSizing:
		cryoCoreSizing(&c)
	default:
		return CoreSpec{}, fmt.Errorf("pipeline: unknown sizing %v", sz)
	}
	c.FreqGHz = md.MaxFrequencyGHz(out, op)
	c.MispredictPenalty = mispredictPenalty(c.Depth)
	return c, nil
}
