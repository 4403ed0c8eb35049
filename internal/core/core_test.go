package core

import (
	"testing"

	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

func TestDeriveCryoSP(t *testing.T) {
	c := New()
	r := c.DeriveCryoSP()
	if r.Baseline.FreqGHz != 4.0 {
		t.Errorf("baseline frequency = %v, want 4", r.Baseline.FreqGHz)
	}
	// Headline claims: 96% over 300 K baseline, 28% over CHP-core.
	if r.FreqGain300K < 1.90 || r.FreqGain300K > 2.02 {
		t.Errorf("CryoSP/300K frequency gain = %v, want ≈1.96", r.FreqGain300K)
	}
	if r.FreqGainCHP < 1.20 || r.FreqGainCHP > 1.35 {
		t.Errorf("CryoSP/CHP frequency gain = %v, want ≈1.285", r.FreqGainCHP)
	}
	if len(r.Superpipe.SplitStages) != 3 {
		t.Errorf("superpipeline split %v, want 3 stages", r.Superpipe.SplitStages)
	}
}

func TestDesignCryoBus(t *testing.T) {
	c := New()
	r := c.DesignCryoBus()
	if r.BroadcastCycles != 1 {
		t.Errorf("CryoBus broadcast = %v cycles, want the 1-cycle broadcast", r.BroadcastCycles)
	}
	if r.MaxHops != 12 || r.SerpentineHops != 30 {
		t.Errorf("hop spans %d/%d, want 12/30", r.MaxHops, r.SerpentineHops)
	}
	if r.ZeroLoadCycles <= 0 || r.ZeroLoadCycles > 10 {
		t.Errorf("CryoBus zero-load = %v cycles, want a handful", r.ZeroLoadCycles)
	}
}

func TestEvaluate(t *testing.T) {
	c := New()
	designs := []sim.Design{
		c.Factory.CHPMesh(),
		c.Factory.CryoSPCryoBus(),
	}
	var profiles []workload.Profile
	for _, n := range []string{"streamcluster", "vips"} {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	cfg := sim.Config{WarmupCycles: 1500, MeasureCycles: 6000, Seed: 1}
	br := &sim.BatchRunner{}
	run := func(specs []sim.LaneSpec) ([]sim.Result, []error) { return br.RunCtx(cfg.Context(), specs) }
	ev, err := c.EvaluateWith(run, designs, profiles, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Perf) != 2 || len(ev.Perf[0]) != 2 {
		t.Fatalf("evaluation shape wrong: %+v", ev)
	}
	if ev.MeanSpeedup[0] != 1.0 {
		t.Errorf("reference mean speedup = %v, want 1", ev.MeanSpeedup[0])
	}
	if ev.MeanSpeedup[1] <= 1.2 {
		t.Errorf("CryoSP+CryoBus mean speedup = %v, want a clear win on this subset", ev.MeanSpeedup[1])
	}
	// Bad reference index rejected.
	if _, err := c.EvaluateWith(run, designs, profiles, 5, cfg); err == nil {
		t.Error("out-of-range reference should error")
	}
}
