// Package platform bundles the calibrated device models of the model
// stack: one MOSFET card with the pipeline and power models built on
// it. Its methods derive the artifacts every layer above consumes —
// validated (temperature, Vdd, Vth) triples, per-class wire speed-ups
// with and without repeaters, NoC Mesh/Bus timings, and the Table 3
// core columns — so sim, core, experiments and the public facade ask
// one Platform instead of wiring phys/wire/pipeline together at each
// call site. Nothing is cached here: each derivation is cheap once the
// phys package has integrated G(T) for a temperature, and that memo is
// bounded, so a server answering arbitrary temperatures and lengths
// keeps no per-query state.
package platform

import (
	"fmt"
	"math"
	"sync"

	"cryowire/internal/noc"
	"cryowire/internal/phys"
	"cryowire/internal/pipeline"
	"cryowire/internal/power"
	"cryowire/internal/wire"
)

// Platform bundles the calibrated device models. The zero value is not
// usable; construct with New or Default. A Platform is never modified
// after construction, so all methods are safe for concurrent use.
type Platform struct {
	mosfet *phys.MOSFET
	pipe   *pipeline.Model
	pow    *power.Model
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

// Default returns the process-wide shared platform: every top-level
// entry point that is not handed an explicit Platform derives on this
// one's model card.
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
// tempK.
func (p *Platform) OpAt(tempK float64) (phys.OperatingPoint, error) {
	op := p.NominalOp(phys.Kelvin(tempK))
	if err := p.ValidateOp(op); err != nil {
		return phys.OperatingPoint{}, err
	}
	return op, nil
}

// ValidateOp is OperatingPoint.Valid plus the model card's temperature
// gate: a sub-77 K operating point is only derivable when the card
// carries the 4 K extension (phys.ErrNo4KCard otherwise), so an
// uncalibrated platform can never silently extrapolate into the
// liquid-helium regime.
func (p *Platform) ValidateOp(op phys.OperatingPoint) error {
	if err := op.Valid(); err != nil {
		return err
	}
	return p.mosfet.ValidTemperature(op.T)
}

// MeshTiming returns the router-NoC timing at op with the given router
// pipeline depth.
func (p *Platform) MeshTiming(op phys.OperatingPoint, routerCycles int) noc.Timing {
	return noc.MeshTiming(op, p.mosfet, routerCycles)
}

// BusTiming returns the shared-bus timing at op.
func (p *Platform) BusTiming(op phys.OperatingPoint) noc.Timing {
	return noc.BusTiming(op, p.mosfet)
}

// WireSpeedup returns the 300K→op speed-up of a driven wire in spec at
// the given length and driver size. With repeated=true the line carries
// latency-optimal repeaters re-optimized at each operating point.
func (p *Platform) WireSpeedup(spec wire.Spec, lengthMM, driverSize float64, op phys.OperatingPoint, repeated bool) float64 {
	return wire.Speedup(wire.NewLine(spec, lengthMM, driverSize), op, p.mosfet, repeated)
}

// WireSpeedupByClass is WireSpeedup keyed by the public class name
// ("local", "semi-global", "global", "forwarding"); unknown classes,
// invalid temperatures and a speed-up that is not finite are errors.
// Unrepeated lines use the length-proportional driver sizing of the
// Fig 5 study.
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
	s := p.WireSpeedup(spec, lengthMM, drv, op, repeated)
	if math.IsNaN(s) || math.IsInf(s, 0) {
		// Valid but extreme temperatures (1e308 K, 1e-300 K) overflow
		// the device model.
		return 0, fmt.Errorf("platform: %s wire speed-up at %g K is not finite", class, tempK)
	}
	return s, nil
}

// --- core frequency targets (Table 3 columns) -------------------------------

// Core derivations run the §4 superpipelining methodology plus the
// critical-path frequency search on the platform's pipeline model.

// Baseline300 returns the 300 K baseline core.
func (p *Platform) Baseline300() pipeline.CoreSpec { return pipeline.Baseline300(p.pipe) }

// Superpipeline77 returns the "77K Superpipeline" core.
func (p *Platform) Superpipeline77() pipeline.CoreSpec { return pipeline.Superpipeline77(p.pipe) }

// SuperpipelineCryoCore77 returns the "+CryoCore" column.
func (p *Platform) SuperpipelineCryoCore77() pipeline.CoreSpec {
	return pipeline.SuperpipelineCryoCore77(p.pipe)
}

// CryoSP returns the final CryoSP core (≈7.84 GHz).
func (p *Platform) CryoSP() pipeline.CoreSpec { return pipeline.CryoSP(p.pipe) }

// CHPCore returns the CHP-core comparison point.
func (p *Platform) CHPCore() pipeline.CoreSpec { return pipeline.CHPCore(p.pipe) }

// DerivedCore returns the core at an arbitrary point of the §4 design
// space: `splits` frontend stages split (ranked at analysisOp), the
// given sizing recipe, clocked at op. This is the derivation the
// design-space-exploration engine sweeps.
func (p *Platform) DerivedCore(splits int, analysisOp, op phys.OperatingPoint, sz pipeline.Sizing) (pipeline.CoreSpec, error) {
	return pipeline.CustomCore(p.pipe, splits, analysisOp, op, sz)
}

// Stats returns the zero CacheStats: the platform no longer caches.
//
// Deprecated: the benchmark's registry pass (bench/registry.go) and
// grid search (bench/dsefull.go) still read it for their
// platform.hits_* and platform.misses_* rows; it goes with those rows.
func (p *Platform) Stats() CacheStats { return CacheStats{} }

// CacheStats is what Stats returns.
//
// Deprecated: kept only as Stats's result type.
type CacheStats struct {
	Hits, Misses uint64
}
