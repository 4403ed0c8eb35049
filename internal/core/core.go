// Package core composes the CryoWire system: it derives the paper's
// two proposed microarchitectures (CryoSP, the frontend-superpipelined
// 77 K core, and CryoBus, the H-tree snooping bus) from the device
// models, assembles the five evaluation designs of Table 4, and runs
// the full-system comparison of §6.
package core

import (
	"fmt"
	"math"

	"cryowire/internal/noc"
	"cryowire/internal/phys"
	"cryowire/internal/pipeline"
	"cryowire/internal/platform"
	"cryowire/internal/power"
	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

// CryoWire is the top-level model suite. All its models are views onto
// one shared Platform.
type CryoWire struct {
	Platform *platform.Platform
	MOSFET   *phys.MOSFET
	Pipeline *pipeline.Model
	Power    *power.Model
	Factory  *sim.Factory
}

// New builds the model suite on the process-wide default platform.
func New() *CryoWire { return NewWith(platform.Default()) }

// NewWith builds the model suite on an explicit platform.
func NewWith(p *platform.Platform) *CryoWire {
	return &CryoWire{
		Platform: p,
		MOSFET:   p.MOSFET(),
		Pipeline: p.PipelineModel(),
		Power:    p.PowerModel(),
		Factory:  sim.NewFactoryWith(p),
	}
}

// CryoSPReport documents the CryoSP derivation (§4.4–§4.5).
type CryoSPReport struct {
	Baseline     pipeline.CoreSpec
	Superpipe    pipeline.SuperpipelineResult
	CryoSP       pipeline.CoreSpec
	CHPCore      pipeline.CoreSpec
	FreqGain300K float64 // CryoSP vs 300 K baseline (paper: 1.96×)
	FreqGainCHP  float64 // CryoSP vs CHP-core (paper: 1.285×)
}

// DeriveCryoSP runs the full §4 flow: analyze the 77 K critical paths,
// superpipeline the frontend, apply the CryoCore sizing and the Vdd/Vth
// scaling, and report the resulting clocks.
func (c *CryoWire) DeriveCryoSP() CryoSPReport {
	r := CryoSPReport{
		Baseline:  c.Platform.Baseline300(),
		Superpipe: c.Pipeline.Superpipeline(pipeline.BOOM(), pipeline.At77()),
		CryoSP:    c.Platform.CryoSP(),
		CHPCore:   c.Platform.CHPCore(),
	}
	r.FreqGain300K = r.CryoSP.FreqGHz / r.Baseline.FreqGHz
	r.FreqGainCHP = r.CryoSP.FreqGHz / r.CHPCore.FreqGHz
	return r
}

// CryoBusReport documents the CryoBus design point (§5.2).
type CryoBusReport struct {
	Bus *noc.Bus
	// BroadcastCycles is the snoop latency (paper: 1 cycle at 77 K).
	BroadcastCycles float64
	// MaxHops is the H-tree span (12) vs the serpentine baseline (30).
	MaxHops, SerpentineHops int
	// ZeroLoadCycles is the full request→grant→broadcast latency.
	ZeroLoadCycles float64
}

// DesignCryoBus instantiates the 77 K CryoBus for the 64-core system
// and reports its headline latencies.
func (c *CryoWire) DesignCryoBus() CryoBusReport {
	t := c.Platform.BusTiming(noc.Op77())
	bus := noc.NewCryoBus(64, t)
	_, _, _, bc := bus.Breakdown()
	return CryoBusReport{
		Bus:             bus,
		BroadcastCycles: bc,
		MaxHops:         noc.NewHTree(64).BroadcastHops(),
		SerpentineHops:  noc.NewSerpentine(64).BroadcastHops(),
		ZeroLoadCycles:  bus.ZeroLoadLatency(),
	}
}

// Evaluation is the full Fig 23-style comparison.
type Evaluation struct {
	Workloads []string
	Designs   []string
	// Perf[w][d] is absolute performance (instructions/ns).
	Perf [][]float64
	// MeanSpeedup[d] is the geometric-mean speed-up of design d over
	// the reference design (index RefIndex).
	MeanSpeedup []float64
	RefIndex    int
}

// EvaluateWith runs every design × workload pair through run. ref
// selects the normalization design index (the paper normalizes Fig 23
// to CHP-core(77K, Mesh), index 1). run receives the whole grid as
// LaneSpecs (row-major, wi*len(designs)+di) and returns index-aligned
// results and per-spec errors; the experiment layer passes its
// dedup-aware runner here. Each cell is a pure function of its spec,
// so any runner produces the same evaluation.
func (c *CryoWire) EvaluateWith(run func([]sim.LaneSpec) ([]sim.Result, []error), designs []sim.Design, profiles []workload.Profile, ref int, cfg sim.Config) (Evaluation, error) {
	if ref < 0 || ref >= len(designs) {
		return Evaluation{}, fmt.Errorf("core: reference index %d out of range", ref)
	}
	ev := Evaluation{RefIndex: ref}
	for _, d := range designs {
		ev.Designs = append(ev.Designs, d.Name)
	}
	for _, p := range profiles {
		ev.Workloads = append(ev.Workloads, p.Name)
	}
	nd, nw := len(designs), len(profiles)
	ev.Perf = make([][]float64, nw)
	for wi := range ev.Perf {
		ev.Perf[wi] = make([]float64, nd)
	}
	specs := make([]sim.LaneSpec, nw*nd)
	for i := range specs {
		specs[i] = sim.LaneSpec{Design: designs[i%nd], Profile: profiles[i/nd], Config: cfg}
	}
	results, errs := run(specs)
	// Report the first error in grid order — the same one a serial loop
	// would have stopped on.
	for _, err := range errs {
		if err != nil {
			return Evaluation{}, err
		}
	}
	for i, res := range results {
		ev.Perf[i/nd][i%nd] = res.Performance
	}
	geo := make([]float64, nd)
	for di := range designs {
		prod := 1.0
		for wi := range ev.Workloads {
			prod *= ev.Perf[wi][di] / ev.Perf[wi][ev.RefIndex]
		}
		geo[di] = math.Pow(prod, 1/float64(len(ev.Workloads)))
	}
	ev.MeanSpeedup = geo
	return ev, nil
}
