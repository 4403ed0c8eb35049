package sim

import (
	"cryowire/internal/mem"
	"cryowire/internal/noc"
	"cryowire/internal/phys"
	"cryowire/internal/platform"
)

// Factory builds the evaluation designs of Table 4 from the core
// derivations and NoC timings of one Platform.
type Factory struct {
	P     *platform.Platform
	Cores int
}

// NewFactory wires the process-wide default platform for the 64-core
// target.
func NewFactory() *Factory { return NewFactoryWith(platform.Default()) }

// NewFactoryWith builds designs from an explicit platform (for
// sensitivity studies on perturbed device cards).
func NewFactoryWith(p *platform.Platform) *Factory {
	return &Factory{P: p, Cores: 64}
}

// Baseline300 is "Baseline (300K, Mesh)".
func (f *Factory) Baseline300() Design {
	return Design{
		Name:   "Baseline (300K, Mesh)",
		Core:   f.P.Baseline300(),
		Net:    Mesh,
		NoC:    f.P.MeshTiming(phys.Nominal45, 1),
		Memory: mem.Mem300(),
		Cores:  f.Cores,
	}
}

// CHPMesh is "CHP-core (77K, Mesh)" — the state-of-the-art cryogenic
// baseline.
func (f *Factory) CHPMesh() Design {
	return Design{
		Name:   "CHP-core (77K, Mesh)",
		Core:   f.P.CHPCore(),
		Net:    Mesh,
		NoC:    f.P.MeshTiming(noc.Op77(), 1),
		Memory: mem.Mem77(),
		Cores:  f.Cores,
	}
}

// CryoSPMesh is "CryoSP (77K, Mesh)".
func (f *Factory) CryoSPMesh() Design {
	return Design{
		Name:   "CryoSP (77K, Mesh)",
		Core:   f.P.CryoSP(),
		Net:    Mesh,
		NoC:    f.P.MeshTiming(noc.Op77(), 1),
		Memory: mem.Mem77(),
		Cores:  f.Cores,
	}
}

// CHPCryoBus is "CHP-core (77K, CryoBus)".
func (f *Factory) CHPCryoBus() Design {
	return Design{
		Name:   "CHP-core (77K, CryoBus)",
		Core:   f.P.CHPCore(),
		Net:    CryoBus,
		NoC:    f.P.BusTiming(noc.Op77()),
		Memory: mem.Mem77(),
		Cores:  f.Cores,
	}
}

// CryoSPCryoBus is the paper's proposal: "CryoSP (77K, CryoBus)".
func (f *Factory) CryoSPCryoBus() Design {
	return Design{
		Name:   "CryoSP (77K, CryoBus)",
		Core:   f.P.CryoSP(),
		Net:    CryoBus,
		NoC:    f.P.BusTiming(noc.Op77()),
		Memory: mem.Mem77(),
		Cores:  f.Cores,
	}
}

// Evaluation returns the five designs of Table 4 in paper order.
func (f *Factory) Evaluation() []Design {
	return []Design{
		f.Baseline300(),
		f.CHPMesh(),
		f.CryoSPMesh(),
		f.CHPCryoBus(),
		f.CryoSPCryoBus(),
	}
}

// SharedBus77 is the "77K Shared bus" system of Fig 17 (CHP-core with
// the scaled conventional bus).
func (f *Factory) SharedBus77() Design {
	return Design{
		Name:   "CHP-core (77K, Shared bus)",
		Core:   f.P.CHPCore(),
		Net:    SharedBus,
		NoC:    f.P.BusTiming(noc.Op77()),
		Memory: mem.Mem77(),
		Cores:  f.Cores,
	}
}

// IdealNoC77 is the zero-latency reference system of Fig 17.
func (f *Factory) IdealNoC77() Design {
	return Design{
		Name:   "CHP-core (77K, Ideal NoC)",
		Core:   f.P.CHPCore(),
		Net:    Ideal,
		NoC:    f.P.BusTiming(noc.Op77()),
		Memory: mem.Mem77(),
		Cores:  f.Cores,
	}
}

// WithPrefetcher returns a copy of d running the aggressive stride
// prefetcher of §7.1.
func WithPrefetcher(d Design) Design {
	d.Name += " +prefetch"
	d.Prefetch = PrefetchConfig{Enabled: true, Degree: 1, Coverage: 0.25}
	return d
}

// With2WayInterleaving returns a copy of a CryoBus design using 2-way
// address interleaving (§7.1).
func With2WayInterleaving(d Design) Design {
	d.Name += " (2-way)"
	d.Net = CryoBus2Way
	return d
}
