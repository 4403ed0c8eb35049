// Package core composes the CryoWire system: it derives the paper's
// two proposed microarchitectures (CryoSP, the frontend-superpipelined
// 77 K core, and CryoBus, the H-tree snooping bus) from the device
// models and assembles the five evaluation designs of Table 4.
package core

import (
	"cryowire/internal/noc"
	"cryowire/internal/phys"
	"cryowire/internal/pipeline"
	"cryowire/internal/platform"
	"cryowire/internal/power"
	"cryowire/internal/sim"
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
