package pipeline

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cryowire/internal/phys"
)

func newModel() *Model { return NewModel(phys.DefaultMOSFET()) }

func approx(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, relTol*100)
	}
}

func TestBOOMStructure(t *testing.T) {
	p := BOOM()
	if len(p.Stages) != 13 {
		t.Fatalf("BOOM has %d representative stages, want 13", len(p.Stages))
	}
	if p.Depth != 14 {
		t.Errorf("BOOM depth = %d, want 14", p.Depth)
	}
	front, back := 0, 0
	for _, s := range p.Stages {
		if s.Frontend {
			front++
		} else {
			back++
		}
	}
	if front != 5 || back != 8 {
		t.Errorf("frontend/backend split = %d/%d, want 5/8", front, back)
	}
}

func TestFig12At300K(t *testing.T) {
	md := newModel()
	p := BOOM()
	// The slowest 300 K stage is execute bypass at normalized 1.0.
	worst, d := md.CriticalPath(p, phys.Nominal45)
	if worst.Name != "execute bypass" {
		t.Errorf("300K bottleneck = %q, want execute bypass", worst.Name)
	}
	approx(t, "300K max critical path", d, 1.0, 0.005)
	// 300K Observation #1: backend stages have a much higher wire
	// portion (≈45 %) than frontend stages (≈19 %).
	var fSum, bSum float64
	var fN, bN int
	for _, s := range p.Stages {
		if s.Frontend {
			fSum += s.WireFraction()
			fN++
		} else {
			bSum += s.WireFraction()
			bN++
		}
	}
	fAvg, bAvg := fSum/float64(fN), bSum/float64(bN)
	if fAvg < 0.16 || fAvg > 0.23 {
		t.Errorf("frontend avg wire fraction = %v, want ≈0.19", fAvg)
	}
	if bAvg < 0.42 || bAvg > 0.50 {
		t.Errorf("backend avg wire fraction = %v, want ≈0.45", bAvg)
	}
}

func TestFig2TopThreeWirePortions(t *testing.T) {
	// Fig 2: writeback, execute bypass and data read from bypass average
	// 57.6 % wire in their critical paths.
	p := BOOM()
	sum := 0.0
	found := 0
	for _, s := range p.Stages {
		switch s.Name {
		case "writeback", "execute bypass", "data read from bypass":
			sum += s.WireFraction()
			found++
		}
	}
	if found != 3 {
		t.Fatalf("found %d of the 3 Fig 2 stages", found)
	}
	approx(t, "top-3 avg wire portion", sum/3, 0.576, 0.02)
}

func TestFig13At77K(t *testing.T) {
	md := newModel()
	p := BOOM()
	op := At77()
	// 77 K Observation #1: the bottleneck moves to the frontend and the
	// max path shrinks by only ≈19 %.
	worst, d := md.CriticalPath(p, op)
	if !worst.Frontend {
		t.Errorf("77K bottleneck = %q, want a frontend stage", worst.Name)
	}
	if worst.Name != "fetch1" {
		t.Errorf("77K bottleneck = %q, want fetch1", worst.Name)
	}
	approx(t, "77K max critical path", d, 0.81, 0.015)
	// The forwarding stages collapse below the frontend.
	for _, s := range p.Stages {
		if s.Name == "execute bypass" {
			if sd := md.StageDelay(s, op); sd >= d {
				t.Errorf("execute bypass at 77K (%v) should be below the frontend max (%v)", sd, d)
			}
		}
	}
}

func TestSuperpipelineAt77K(t *testing.T) {
	md := newModel()
	res := md.Superpipeline(BOOM(), At77())
	// §4.4: exactly fetch1, fetch3 and decode&rename are split.
	want := []string{"fetch1", "fetch3", "decode&rename"}
	if len(res.SplitStages) != 3 {
		t.Fatalf("split %v, want %v", res.SplitStages, want)
	}
	for i, n := range want {
		if res.SplitStages[i] != n {
			t.Errorf("split[%d] = %q, want %q", i, res.SplitStages[i], n)
		}
	}
	if res.TargetStage != "execute bypass" {
		t.Errorf("target stage = %q, want execute bypass", res.TargetStage)
	}
	// 5-stage frontend becomes 8 stages; 13 representative → 16; depth
	// 14 → 17 (Table 3).
	if got := len(res.Pipeline.Stages); got != 16 {
		t.Errorf("superpipelined stage count = %d, want 16", got)
	}
	if res.Pipeline.Depth != 17 {
		t.Errorf("superpipelined depth = %d, want 17", res.Pipeline.Depth)
	}
	// Fig 14: max critical path falls 38 % vs the 300 K baseline.
	_, d := md.CriticalPath(res.Pipeline, At77())
	approx(t, "superpipelined 77K max path", d, 0.62, 0.015)
}

func TestSuperpipelineMeaninglessAt300K(t *testing.T) {
	// 300 K Observation #2: the un-pipelinable backend stages are the
	// bottleneck, so the methodology splits nothing at 300 K.
	md := newModel()
	res := md.Superpipeline(BOOM(), phys.Nominal45)
	if len(res.SplitStages) != 0 {
		t.Errorf("300K superpipelining split %v, want none", res.SplitStages)
	}
	if md.MaxFrequencyGHz(res.Pipeline, phys.Nominal45) != md.MaxFrequencyGHz(BOOM(), phys.Nominal45) {
		t.Error("300K superpipelining should not change frequency")
	}
}

func TestTable3Frequencies(t *testing.T) {
	md := newModel()
	approx(t, "300K Baseline", Baseline300(md).FreqGHz, 4.0, 0.005)
	// 77K Superpipeline: 6.4 GHz (+61 %).
	approx(t, "77K Superpipeline", Superpipeline77(md).FreqGHz, 6.4, 0.025)
	// Width reduction leaves frequency unchanged.
	if a, b := Superpipeline77(md).FreqGHz, SuperpipelineCryoCore77(md).FreqGHz; a != b {
		t.Errorf("CryoCore sizing changed frequency: %v vs %v", a, b)
	}
	// CryoSP: 7.84 GHz (+96 %).
	approx(t, "CryoSP", CryoSP(md).FreqGHz, 7.84, 0.025)
	// CHP-core: ≈6.1 GHz; our derivation is allowed a few % deviation.
	approx(t, "CHP-core", CHPCore(md).FreqGHz, 6.1, 0.04)
	// Ordering of the headline claims: CryoSP ≈28 % above CHP-core.
	ratio := CryoSP(md).FreqGHz / CHPCore(md).FreqGHz
	if ratio < 1.2 || ratio > 1.35 {
		t.Errorf("CryoSP/CHP frequency ratio = %v, want ≈1.28", ratio)
	}
}

func TestTable3Sizing(t *testing.T) {
	md := newModel()
	b := Baseline300(md)
	if b.Width != 8 || b.ROB != 224 || b.LoadQ != 72 || b.StoreQ != 56 || b.IssueQ != 97 || b.IntRegs != 180 || b.FpRegs != 168 {
		t.Errorf("baseline sizing wrong: %+v", b)
	}
	c := CryoSP(md)
	if c.Width != 4 || c.ROB != 96 || c.LoadQ != 24 || c.StoreQ != 24 || c.IssueQ != 72 || c.IntRegs != 100 || c.FpRegs != 96 {
		t.Errorf("CryoSP sizing wrong: %+v", c)
	}
	if c.Depth != 17 {
		t.Errorf("CryoSP depth = %d, want 17", c.Depth)
	}
	if chp := CHPCore(md); chp.Depth != 14 {
		t.Errorf("CHP depth = %d, want 14", chp.Depth)
	}
	for _, spec := range []CoreSpec{b, c, CHPCore(md), Superpipeline77(md), SuperpipelineCryoCore77(md)} {
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate(%s): %v", spec.Name, err)
		}
	}
}

func TestMispredictPenaltyGrowsWithDepth(t *testing.T) {
	md := newModel()
	if b, c := Baseline300(md), CryoSP(md); c.MispredictPenalty != b.MispredictPenalty+3 {
		t.Errorf("CryoSP penalty %d vs baseline %d: want +3 for 3 extra stages",
			c.MispredictPenalty, b.MispredictPenalty)
	}
}

func TestFig9PipelineValidation(t *testing.T) {
	// §3.2.3: at 135 K the pipeline model predicts ≈15 % core frequency
	// gain; the LN-cooled i5-6600K measured 12.1 %. Our model must land
	// in the validation window.
	md := newModel()
	op := phys.OperatingPoint{T: phys.T135, Vdd: phys.Nominal45.Vdd, Vth: phys.Nominal45.Vth}
	speedup := md.MaxFrequencyGHz(BOOM(), op) / md.MaxFrequencyGHz(BOOM(), phys.Nominal45)
	if speedup < 1.10 || speedup > 1.20 {
		t.Errorf("135K pipeline speedup = %v, want within the Fig 9 window [1.10, 1.20]", speedup)
	}
}

func TestStageDelayMonotoneInCooling(t *testing.T) {
	md := newModel()
	for _, s := range BOOM().Stages {
		prev := math.Inf(1)
		for _, temp := range []phys.Kelvin{300, 200, 135, 100, 77} {
			op := phys.OperatingPoint{T: temp, Vdd: phys.Nominal45.Vdd, Vth: phys.Nominal45.Vth}
			d := md.StageDelay(s, op)
			if d > prev {
				t.Errorf("stage %s delay increased while cooling to %vK", s.Name, temp)
			}
			prev = d
		}
	}
}

func TestSplitStagesFasterThanParent(t *testing.T) {
	md := newModel()
	for _, s := range BOOM().Stages {
		for _, half := range s.Split {
			for _, op := range []phys.OperatingPoint{phys.Nominal45, At77()} {
				if md.StageDelay(half, op) >= md.StageDelay(s, op) {
					t.Errorf("split stage %s not faster than parent %s at %+v", half.Name, s.Name, op)
				}
			}
		}
	}
}

func TestSplitConservesWork(t *testing.T) {
	// The two halves of a split stage should jointly cover roughly the
	// parent's logic (sum within [parent, parent+15%] — the split adds
	// flip-flop overhead, it cannot delete logic).
	for _, s := range BOOM().Stages {
		if len(s.Split) == 0 {
			continue
		}
		sum := 0.0
		for _, h := range s.Split {
			sum += h.Total()
		}
		if sum < s.Total() || sum > s.Total()*1.15 {
			t.Errorf("stage %s: split halves total %v vs parent %v", s.Name, sum, s.Total())
		}
	}
}

func TestWireSpeedupKinds(t *testing.T) {
	md := newModel()
	long := md.WireSpeedup(LongWire, phys.T77)
	short := md.WireSpeedup(ShortWire, phys.T77)
	approx(t, "long wire speedup @77K", long, 2.81, 0.02)
	if short >= long {
		t.Errorf("short-wire speedup %v should be below long-wire %v", short, long)
	}
	if short < 1.5 || short > 2.3 {
		t.Errorf("short-wire speedup = %v, want a modest local-wire gain", short)
	}
	// A repeated derivation returns the identical value.
	if md.WireSpeedup(LongWire, phys.T77) != long {
		t.Error("a second derivation changed the long-wire value")
	}
}

func TestFrequencyMonotoneInTemperature(t *testing.T) {
	md := newModel()
	f := func(raw uint8) bool {
		t1 := phys.Kelvin(77 + float64(raw%223))
		t2 := t1 + 10
		op1 := phys.OperatingPoint{T: t1, Vdd: phys.Nominal45.Vdd, Vth: phys.Nominal45.Vth}
		op2 := phys.OperatingPoint{T: t2, Vdd: phys.Nominal45.Vdd, Vth: phys.Nominal45.Vth}
		return md.MaxFrequencyGHz(BOOM(), op1) >= md.MaxFrequencyGHz(BOOM(), op2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStageNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	var walk func([]Stage)
	var dupes []string
	walk = func(ss []Stage) {
		for _, s := range ss {
			if seen[s.Name] {
				dupes = append(dupes, s.Name)
			}
			seen[s.Name] = true
			walk(s.Split)
		}
	}
	walk(BOOM().Stages)
	if len(dupes) > 0 {
		t.Errorf("duplicate stage names: %s", strings.Join(dupes, ", "))
	}
}
