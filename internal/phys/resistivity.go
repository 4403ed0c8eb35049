// Package phys provides the low-level device physics used throughout
// CryoWire: temperature-dependent copper resistivity (cryo-wire),
// a cryogenic MOSFET model card (cryo-MOSFET) and the cryocooler
// power-overhead model.
//
// These models substitute for the CC-Model components of Byun et al.
// (ISCA'20) that the paper builds on. They are calibrated against the
// anchor numbers reported in the CryoWire paper itself; DESIGN.md lists
// every calibration target.
package phys

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Kelvin is a temperature in kelvin.
type Kelvin float64

// Reference temperatures used throughout the paper.
const (
	T300 Kelvin = 300 // room temperature baseline
	T135 Kelvin = 135 // validation-board temperature (Fig 8/9)
	T100 Kelvin = 100 // sweet-spot candidate (Fig 27)
	T77  Kelvin = 77  // liquid-nitrogen target temperature
	T4   Kelvin = 4   // liquid-helium stage of the multi-stage model
)

// DebyeTemperatureCu is the effective Bloch–Grüneisen temperature of
// copper (Matula, J. Phys. Chem. Ref. Data 8, 1979 uses Θ_R ≈ 343 K).
const DebyeTemperatureCu = 343.0

// blochGruneisen returns the dimensionless Bloch–Grüneisen integral
//
//	G(T) = (T/Θ)^5 · ∫₀^{Θ/T} x⁵ / ((e^x − 1)(1 − e^−x)) dx
//
// which is proportional to the phonon-limited resistivity of a metal at
// temperature T. The integral is evaluated with composite Simpson
// quadrature; the integrand is finite at x→0 (→ x³).
func blochGruneisen(t Kelvin) float64 {
	if t <= 0 {
		return 0
	}
	bgIntegrals.Add(1)
	upper := DebyeTemperatureCu / float64(t)
	// Integrand x^5 / ((e^x-1)(1-e^-x)); near 0 behaves as x^3.
	f := func(x float64) float64 {
		if x < 1e-9 {
			return x * x * x
		}
		return math.Pow(x, 5) / ((math.Expm1(x)) * (-math.Expm1(-x)))
	}
	const n = 2000 // panels (even)
	h := upper / n
	sum := f(0) + f(upper)
	for i := 1; i < n; i++ {
		x := float64(i) * h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	integral := sum * h / 3
	return math.Pow(float64(t)/DebyeTemperatureCu, 5) * integral
}

// bgIntegrals counts the Bloch–Grüneisen integrals evaluated, so tests
// can see what the memo saves.
var bgIntegrals atomic.Int64

// bgMemoCap bounds how many temperatures the memo holds. A derivation
// visits a handful (300, 150, 135, 100, 77, 4 K), but temperatures also
// arrive as request input, so an unbounded memo would grow with every
// distinct value a client sends.
const bgMemoCap = 64

// bgMemo holds G(T) per temperature for the life of the process: every
// wire, link and NoC-timing derivation needs it, and each integral is
// 2,001 integrand evaluations. It is package state rather than part of
// a platform because wire.ElmoreDelay, OptimalDelayPerMM and
// OptimalSegmentation reach it with no platform in hand; G is a pure
// function of T, so sharing it cannot change a result.
var bgMemo = struct {
	mu sync.Mutex
	g  map[Kelvin]float64
}{g: make(map[Kelvin]float64, bgMemoCap)}

// cachedBlochGruneisen returns blochGruneisen(t), integrating at most
// once per temperature while the memo has room. NaN and t ≤ 0 are never
// stored; past the cap a temperature is integrated on every call.
func cachedBlochGruneisen(t Kelvin) float64 {
	if !(t > 0) {
		return blochGruneisen(t)
	}
	bgMemo.mu.Lock()
	g, ok := bgMemo.g[t]
	bgMemo.mu.Unlock()
	if ok {
		return g
	}
	g = blochGruneisen(t)
	bgMemo.mu.Lock()
	if len(bgMemo.g) < bgMemoCap {
		bgMemo.g[t] = g
	}
	bgMemo.mu.Unlock()
	return g
}

// PhononResistivityFactor returns ρ_ph(T)/ρ_ph(300K), the fraction of
// room-temperature phonon-limited resistivity that remains at T.
// For copper this is ≈ 0.117 at 77 K, matching the bulk resistivity
// drop from 1.72 µΩ·cm to ≈ 0.21 µΩ·cm reported by Matula.
func PhononResistivityFactor(t Kelvin) float64 {
	return cachedBlochGruneisen(t) / cachedBlochGruneisen(T300)
}

// WireClass identifies one of the three metal-stack wire families of a
// modern process (§2.1 of the paper).
type WireClass int

const (
	// LocalWire is the thinnest, highest-resistivity wire connecting
	// adjacent gates inside a microarchitectural unit.
	LocalWire WireClass = iota
	// SemiGlobalWire is the middle-layer wire connecting units inside a
	// core (e.g. the data-forwarding wires).
	SemiGlobalWire
	// GlobalWire is the thick top-layer wire used by the NoC.
	GlobalWire
)

// String implements fmt.Stringer.
func (c WireClass) String() string {
	switch c {
	case LocalWire:
		return "local"
	case SemiGlobalWire:
		return "semi-global"
	case GlobalWire:
		return "global"
	default:
		return fmt.Sprintf("WireClass(%d)", int(c))
	}
}

// resistivityParams captures the size-effect decomposition of a wire
// class: total room-temperature resistivity = residual (temperature
// independent surface/grain-boundary scattering, grows as wires thin)
// plus a phonon component that follows Bloch–Grüneisen.
//
// The residual components are calibrated so that the 300K→77K
// resistance ratios reproduce the paper's Hspice wire study
// (Fig 5a: long local 2.95×, long semi-global 3.69×; global wires are
// near-bulk, ≈8× — consistent with the Intel 45nm measurements at 300 K
// and 77 K the paper cites [44, 52]).
type resistivityParams struct {
	rho300   float64 // total resistivity at 300 K, µΩ·cm
	residual float64 // temperature-independent component, µΩ·cm
}

var wireResistivity = map[WireClass]resistivityParams{
	LocalWire:      {rho300: 4.00, residual: 1.035},
	SemiGlobalWire: {rho300: 2.90, residual: 0.529},
	GlobalWire:     {rho300: 2.00, residual: 0.005},
}

// Resistivity returns the resistivity of the given wire class at
// temperature t in µΩ·cm. The Bloch–Grüneisen phonon term is valid all
// the way to liquid helium: at 4 K the phonon component has collapsed
// (G(4 K)/G(300 K) ≈ 1e-7) and the residual surface/grain-boundary
// term is all that remains, which is why thin local wires stop
// improving below ~77 K while near-bulk global wires keep gaining.
func Resistivity(c WireClass, t Kelvin) float64 {
	p, ok := wireResistivity[c]
	if !ok {
		panic(fmt.Sprintf("phys: unknown wire class %v", c))
	}
	phonon300 := p.rho300 - p.residual
	return p.residual + phonon300*PhononResistivityFactor(t)
}

// ResistanceRatio returns ρ(300K)/ρ(T) for the wire class — the factor
// by which the wire's resistance (and, for RC-dominated wires, delay)
// shrinks when cooled from 300 K to t.
// Kept for tests: it pins EXPERIMENTS.md's fig5 "long local/semi-global wire speed-up @77 K (no repeaters)" rows.
func ResistanceRatio(c WireClass, t Kelvin) float64 {
	return Resistivity(c, T300) / Resistivity(c, t)
}
