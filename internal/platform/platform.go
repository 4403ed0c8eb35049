// Package platform is the shared derivation layer of the model stack.
// A Platform owns one MOSFET card plus a memoized, concurrency-safe
// cache of everything derivable from an operating point — validated
// (temperature, Vdd, Vth) triples, per-class wire speed-ups with and
// without repeaters, NoC Mesh/Bus timings, and the Table 3 core
// columns — so a 300K↔77K comparison derives each artifact
// exactly once instead of once per call site. Every layer above
// (sim, core, experiments, the public facade) consumes one Platform
// instead of re-running phys/wire/pipeline derivations from scratch,
// which is what makes the parallel experiment engine cheap: dozens of
// concurrent runners share a single warm cache instead of each paying
// the repeater searches and superpipeline derivations again.
package platform

import (
	"sync"

	"cryowire/internal/noc"
	"cryowire/internal/phys"
	"cryowire/internal/pipeline"
	"cryowire/internal/power"
	"cryowire/internal/wire"
)

// Platform bundles the calibrated device models with the derivation
// cache. The zero value is not usable; construct with New or Default.
// All methods are safe for concurrent use, and each cached artifact is
// computed exactly once per key even under concurrent first access.
type Platform struct {
	mosfet *phys.MOSFET
	pipe   *pipeline.Model
	pow    *power.Model

	ops      memo[phys.OperatingPoint, error]
	mesh     memo[meshKey, noc.Timing]
	bus      memo[phys.OperatingPoint, noc.Timing]
	speedups memo[speedupKey, float64]
	forward  memo[phys.Kelvin, float64]
	cores    memo[string, pipeline.CoreSpec]
	derived  memo[derivedKey, derivedCore]
}

type derivedKey struct {
	splits     int
	analysisOp phys.OperatingPoint
	op         phys.OperatingPoint
	sizing     pipeline.Sizing
}

type derivedCore struct {
	core pipeline.CoreSpec
	err  error
}

type meshKey struct {
	op           phys.OperatingPoint
	routerCycles int
}

type speedupKey struct {
	spec       wire.Spec
	lengthMM   float64
	driverSize float64
	op         phys.OperatingPoint
	repeated   bool
}

// New builds a platform around the default calibrated MOSFET card.
func New() *Platform { return NewWith(phys.DefaultMOSFET()) }

// NewWith builds a platform around a caller-supplied model card (for
// sensitivity studies on perturbed devices).
func NewWith(m *phys.MOSFET) *Platform {
	return &Platform{
		mosfet: m,
		pipe:   pipeline.NewModel(m),
		pow:    power.NewModel(),
	}
}

// defaultPlatform is the process-wide shared instance behind Default.
var defaultPlatform = sync.OnceValue(New)

// Default returns the process-wide shared platform. Every top-level
// entry point that is not handed an explicit Platform uses this one, so
// repeated API calls — and parallel experiment runners — share a single
// warm derivation cache.
func Default() *Platform { return defaultPlatform() }

// MOSFET returns the platform's transistor model card.
func (p *Platform) MOSFET() *phys.MOSFET { return p.mosfet }

// PipelineModel returns the shared pipeline critical-path model.
func (p *Platform) PipelineModel() *pipeline.Model { return p.pipe }

// PowerModel returns the shared power model.
func (p *Platform) PowerModel() *power.Model { return p.pow }

// NominalOp returns the nominal-voltage operating point at temperature
// t — the condition of the Fig 5 wire study and every "@TK" timing.
func (p *Platform) NominalOp(t phys.Kelvin) phys.OperatingPoint {
	return phys.OperatingPoint{T: t, Vdd: phys.Nominal45.Vdd, Vth: phys.Nominal45.Vth}
}

// OpAt validates and returns the nominal-voltage operating point at
// tempK. Validation results are memoized per point.
func (p *Platform) OpAt(tempK float64) (phys.OperatingPoint, error) {
	op := p.NominalOp(phys.Kelvin(tempK))
	if err := p.ValidateOp(op); err != nil {
		return phys.OperatingPoint{}, err
	}
	return op, nil
}

// ValidateOp memoizes OperatingPoint.Valid plus the model card's
// temperature gate: a sub-77 K operating point is only derivable when
// the card carries the 4 K extension (phys.ErrNo4KCard otherwise), so
// an uncalibrated platform can never silently extrapolate into the
// liquid-helium regime.
func (p *Platform) ValidateOp(op phys.OperatingPoint) error {
	return p.ops.get(op, func() error {
		if err := op.Valid(); err != nil {
			return err
		}
		return p.mosfet.ValidTemperature(op.T)
	})
}

// MeshTiming returns the memoized router-NoC timing at op with the
// given router pipeline depth.
func (p *Platform) MeshTiming(op phys.OperatingPoint, routerCycles int) noc.Timing {
	return p.mesh.get(meshKey{op, routerCycles}, func() noc.Timing {
		return noc.MeshTiming(op, p.mosfet, routerCycles)
	})
}

// BusTiming returns the memoized shared-bus timing at op.
func (p *Platform) BusTiming(op phys.OperatingPoint) noc.Timing {
	return p.bus.get(op, func() noc.Timing {
		return noc.BusTiming(op, p.mosfet)
	})
}

// WireSpeedup returns the memoized 300K→op speed-up of a driven wire in
// spec at the given length and driver size. With repeated=true the line
// carries latency-optimal repeaters re-optimized at each operating
// point.
func (p *Platform) WireSpeedup(spec wire.Spec, lengthMM, driverSize float64, op phys.OperatingPoint, repeated bool) float64 {
	k := speedupKey{spec, lengthMM, driverSize, op, repeated}
	return p.speedups.get(k, func() float64 {
		return wire.Speedup(wire.NewLine(spec, lengthMM, driverSize), op, p.mosfet, repeated)
	})
}

// WireSpeedupByClass is WireSpeedup keyed by the public class name
// ("local", "semi-global", "global", "forwarding"); unknown classes and
// invalid temperatures are errors. Unrepeated lines use the
// length-proportional driver sizing of the Fig 5 study.
func (p *Platform) WireSpeedupByClass(class string, lengthMM, tempK float64, repeated bool) (float64, error) {
	spec, err := wire.SpecByName(class)
	if err != nil {
		return 0, err
	}
	op, err := p.OpAt(tempK)
	if err != nil {
		return 0, err
	}
	drv := 1 + lengthMM*10
	if repeated {
		drv = 1
	}
	return p.WireSpeedup(spec, lengthMM, drv, op, repeated), nil
}

// ForwardingSpeedup returns the memoized 300K→t speed-up of the in-core
// data-forwarding wires (2.81× at 77 K).
func (p *Platform) ForwardingSpeedup(t phys.Kelvin) float64 {
	return p.forward.get(t, func() float64 { return wire.ForwardingSpeedup(t, p.mosfet) })
}

// --- core frequency targets (Table 3 columns) -------------------------------

// Core derivations run the §4 superpipelining methodology plus the
// critical-path frequency search; each named column is derived once per
// platform.

// Baseline300 returns the memoized 300 K baseline core.
func (p *Platform) Baseline300() pipeline.CoreSpec {
	return p.cores.get("baseline300", func() pipeline.CoreSpec { return pipeline.Baseline300(p.pipe) })
}

// Superpipeline77 returns the memoized "77K Superpipeline" core.
func (p *Platform) Superpipeline77() pipeline.CoreSpec {
	return p.cores.get("superpipeline77", func() pipeline.CoreSpec { return pipeline.Superpipeline77(p.pipe) })
}

// SuperpipelineCryoCore77 returns the memoized "+CryoCore" column.
func (p *Platform) SuperpipelineCryoCore77() pipeline.CoreSpec {
	return p.cores.get("superpipelineCryoCore77", func() pipeline.CoreSpec {
		return pipeline.SuperpipelineCryoCore77(p.pipe)
	})
}

// CryoSP returns the memoized final CryoSP core (≈7.84 GHz).
func (p *Platform) CryoSP() pipeline.CoreSpec {
	return p.cores.get("cryoSP", func() pipeline.CoreSpec { return pipeline.CryoSP(p.pipe) })
}

// CHPCore returns the memoized CHP-core comparison point.
func (p *Platform) CHPCore() pipeline.CoreSpec {
	return p.cores.get("chpCore", func() pipeline.CoreSpec { return pipeline.CHPCore(p.pipe) })
}

// DerivedCore returns the memoized core at an arbitrary point of the §4
// design space: `splits` frontend stages split (ranked at analysisOp),
// the given sizing recipe, clocked at op. This is the derivation the
// design-space-exploration engine sweeps; memoizing it means a search
// revisiting the same (depth, voltage, sizing) triple — across
// strategies, resumed runs and concurrent candidates — pays the
// critical-path frequency search exactly once.
func (p *Platform) DerivedCore(splits int, analysisOp, op phys.OperatingPoint, sz pipeline.Sizing) (pipeline.CoreSpec, error) {
	d := p.derived.get(derivedKey{splits, analysisOp, op, sz}, func() derivedCore {
		core, err := pipeline.CustomCore(p.pipe, splits, analysisOp, op, sz)
		return derivedCore{core, err}
	})
	return d.core, d.err
}

// Stats reports cache effectiveness across every memo table.
func (p *Platform) Stats() CacheStats {
	var s CacheStats
	s.add(p.ops.stats())
	s.add(p.mesh.stats())
	s.add(p.bus.stats())
	s.add(p.speedups.stats())
	s.add(p.forward.stats())
	s.add(p.cores.stats())
	s.add(p.derived.stats())
	return s
}

// CacheStats counts derivation-cache traffic: Misses is the number of
// distinct artifacts actually derived, Hits the number of calls served
// from the cache.
type CacheStats struct {
	Hits, Misses uint64
}

func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
}
