package branch

import (
	"testing"
	"testing/quick"
)

func TestBTBBasics(t *testing.T) {
	b := NewBTB(512)
	if _, hit := b.Lookup(0x400010); hit {
		t.Error("cold BTB should miss")
	}
	b.Update(0x400010, 0x400080)
	tgt, hit := b.Lookup(0x400010)
	if !hit || tgt != 0x400080 {
		t.Errorf("BTB lookup = (%#x,%v), want (0x400080,true)", tgt, hit)
	}
	// A different PC aliasing to the same set but different tag misses.
	alias := uint64(0x400010) | (1 << 20)
	if _, hit := b.Lookup(alias); hit {
		t.Error("tag mismatch should miss")
	}
}

func TestBimodalSaturation(t *testing.T) {
	p := NewBimodal(64)
	pc := uint64(0x1000)
	for i := 0; i < 10; i++ {
		p.Update(pc, true)
	}
	if !p.Predict(pc) {
		t.Error("saturated-taken counter should predict taken")
	}
	// One not-taken must not flip a saturated counter (hysteresis).
	p.Update(pc, false)
	if !p.Predict(pc) {
		t.Error("single not-taken flipped a saturated counter")
	}
	for i := 0; i < 4; i++ {
		p.Update(pc, false)
	}
	if p.Predict(pc) {
		t.Error("repeated not-taken should retrain the counter")
	}
}

func TestCounterBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := NewBimodal(32)
		g := NewGShare(64, 8, 2)
		s := NewStream(seed, 16)
		for i := 0; i < 500; i++ {
			pc, taken, _ := s.Next()
			p.Update(pc, taken)
			g.Update(pc, taken)
		}
		for _, c := range p.counters {
			if c > 3 {
				return false
			}
		}
		for _, c := range g.counters {
			if c > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGShareBeatsBimodalOnCorrelatedBranches(t *testing.T) {
	// The whole point of the slow main predictor: history correlation —
	// measured on a correlated-branch-dominated stream where PC-indexed
	// counters cannot help.
	bm := NewBimodal(4096)
	gs := NewGShare(8192, 6, 2)
	s := NewStreamMix(7, 200, [4]float64{0.20, 0.0, 0.80, 0.0})
	var bmMiss, gsMiss, n int
	for i := 0; i < 60000; i++ {
		pc, taken, _ := s.Next()
		if bm.Predict(pc) != taken {
			bmMiss++
		}
		if gs.Predict(pc) != taken {
			gsMiss++
		}
		bm.Update(pc, taken)
		gs.Update(pc, taken)
		n++
	}
	if gsMiss >= bmMiss {
		t.Errorf("gshare misses %d not below bimodal %d", gsMiss, bmMiss)
	}
}

func TestOverridingStructure(t *testing.T) {
	o := NewOverriding(12)
	out := o.Run(NewStream(3, 400), 50000)
	if out.Branches != 50000 {
		t.Fatalf("ran %d branches", out.Branches)
	}
	mr := float64(out.Mispredicts) / float64(out.Branches)
	if mr <= 0.005 || mr >= 0.20 {
		t.Errorf("mispredict rate = %v, want a realistic several %%", mr)
	}
	or := float64(out.Overrides) / float64(out.Branches)
	if or <= 0 {
		t.Error("overriding structure never overrode — fast/main predictors identical?")
	}
	if or >= 0.5 {
		t.Errorf("override rate = %v, too high to be useful", or)
	}
}

func TestSuperpipelinePenalties(t *testing.T) {
	base := NewOverriding(12)
	super := base.Superpipeline()
	if super.MispredictPenalty != 15 {
		t.Errorf("superpipelined refill = %d, want 15 (three added stages)", super.MispredictPenalty)
	}
	if super.Main.LatencyCycles != 3 {
		t.Errorf("superpipelined main-predictor latency = %d, want 3", super.Main.LatencyCycles)
	}
	if super.OverrideBubble != 3 {
		t.Errorf("superpipelined override bubble = %d, want 3", super.OverrideBubble)
	}
}

func TestSuperpipelineIPCCostNearPaper(t *testing.T) {
	// §4.4: the three added frontend stages cost only ≈4.2 % IPC.
	// PARSEC-like density: ~0.18 branches/instr, base CPI ≈ 0.55.
	cost := SuperpipelineIPCCost(11, 80000, 0.18, 0.55)
	if cost < 0.015 || cost > 0.08 {
		t.Errorf("superpipelining IPC cost = %.1f%%, want ≈4%% (paper: 4.2%%)", cost*100)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(5, 100), NewStream(5, 100)
	for i := 0; i < 1000; i++ {
		pa, ta, _ := a.Next()
		pb, tb, _ := b.Next()
		if pa != pb || ta != tb {
			t.Fatal("stream not deterministic for equal seeds")
		}
	}
}

func TestLoopBranchesArePeriodic(t *testing.T) {
	// A loop branch must be not-taken exactly once per period.
	s := &Stream{rng: nil, branches: []streamBranch{{pc: 0x10, kind: 1, period: 5}}}
	notTaken := 0
	b := &s.branches[0]
	for i := 0; i < 25; i++ {
		b.count++
		if b.count%b.period == 0 {
			notTaken++
		}
	}
	if notTaken != 5 {
		t.Errorf("loop exited %d times in 25 iterations of period 5, want 5", notTaken)
	}
}
