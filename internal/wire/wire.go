// Package wire models on-chip interconnect: distributed-RC lines in the
// three metal classes of §2.1, CMOS drivers, and latency-optimal
// repeater insertion. It substitutes for the paper's Hspice wire
// studies (§2.3, Fig 5) and feeds the pipeline model (forwarding-wire
// speed-up) and the NoC model (global-link hops per cycle).
package wire

import (
	"fmt"
	"math"

	"cryowire/internal/phys"
)

// Spec describes the geometry of a wire in one metal class. Resistance
// follows from the class resistivity (temperature dependent) and the
// cross-section; capacitance per length is approximately geometry- and
// temperature-independent at these scales.
type Spec struct {
	Class       phys.WireClass
	WidthNM     float64 // drawn width, nm
	ThicknessNM float64 // metal thickness, nm
	CapPerMM    float64 // F per mm
}

// Standard 45 nm-class wire geometries (Intel 45 nm metallization per
// Mistry et al. [44], simplified to one representative layer per class).
var (
	// Local is the thin M1/M2-class wire inside a unit.
	Local = Spec{Class: phys.LocalWire, WidthNM: 45, ThicknessNM: 81, CapPerMM: 0.25e-12}
	// SemiGlobal is the intermediate-layer wire between units in a core.
	SemiGlobal = Spec{Class: phys.SemiGlobalWire, WidthNM: 70, ThicknessNM: 140, CapPerMM: 0.23e-12}
	// Global is the thick top-layer wire used for NoC links.
	Global = Spec{Class: phys.GlobalWire, WidthNM: 400, ThicknessNM: 800, CapPerMM: 0.20e-12}
	// Forwarding is the widened semi-global wire used for the ALU/regfile
	// data-forwarding loop (drawn 2× wide/thick to keep the bypass path
	// within a clock cycle, as real designs do — §7.5 notes target wires
	// can be drawn thicker at small cost).
	Forwarding = Spec{Class: phys.SemiGlobalWire, WidthNM: 140, ThicknessNM: 280, CapPerMM: 0.23e-12}
)

// ClassNames lists the wire classes SpecByName accepts, in the order
// the paper introduces them.
func ClassNames() []string {
	return []string{"local", "semi-global", "global", "forwarding"}
}

// SpecByName returns the standard geometry for a named wire class:
// "local", "semi-global", "global", or "forwarding" (the widened
// semi-global bypass wire). Unknown names are an error listing the
// valid classes.
func SpecByName(class string) (Spec, error) {
	switch class {
	case "local":
		return Local, nil
	case "semi-global":
		return SemiGlobal, nil
	case "global":
		return Global, nil
	case "forwarding":
		return Forwarding, nil
	default:
		return Spec{}, fmt.Errorf("wire: unknown wire class %q (have %v)", class, ClassNames())
	}
}

// ResistancePerMM returns the wire resistance in Ω/mm at temperature t.
func (s Spec) ResistancePerMM(t phys.Kelvin) float64 {
	rho := phys.Resistivity(s.Class, t) // µΩ·cm = 1e-8 Ω·m
	area := (s.WidthNM * 1e-9) * (s.ThicknessNM * 1e-9)
	ohmPerM := rho * 1e-8 / area
	return ohmPerM * 1e-3
}

// Driver models the CMOS gate driving a wire (and the repeaters along
// it). Its resistance improves with cooling and with overdrive.
type Driver struct {
	// R300 is the unit-size driver resistance at the nominal 300 K
	// operating point, Ω.
	R300 float64
	// Cin is the unit-size driver input capacitance, F.
	Cin float64
	// Cpar is the unit-size driver output (diffusion) capacitance, F.
	// Each repeater pays an intrinsic 0.69·R0·Cpar delay regardless of
	// size, which is what bounds the optimal repeater count.
	Cpar float64
	// LoadCap is the far-end receiver capacitance, F.
	LoadCap float64
	// InterconnectGain77 is the extra 300K→77K drive improvement of the
	// large interconnect drivers over minimum-size logic (calibrated so
	// the repeatered speed-ups of Fig 5b come out: big repeaters run at
	// lower effective fields where cryogenic mobility gains are larger).
	InterconnectGain77 float64
}

// DefaultDriver returns the calibrated repeater/driver model. R300·Cin
// corresponds to a ~20 ps FO4 — a 45 nm-class inverter.
func DefaultDriver() Driver {
	return Driver{R300: 8000, Cin: 1.2e-15, Cpar: 2.4e-15, LoadCap: 5e-15, InterconnectGain77: 1.27}
}

// interconnectGain interpolates the extra cryogenic drive gain between
// 300 K (1.0) and 77 K (InterconnectGain77), mirroring the mobility
// interpolation of the MOSFET card.
func (d Driver) interconnectGain(t phys.Kelvin) float64 {
	if t >= phys.T300 {
		return 1
	}
	if t <= phys.T77 {
		return d.InterconnectGain77
	}
	frac := math.Log(float64(phys.T300)/float64(t)) / math.Log(float64(phys.T300)/float64(phys.T77))
	return 1 + (d.InterconnectGain77-1)*frac
}

// Resistance returns the unit-size driver resistance at op. Wire
// drivers and repeaters are modelled as boosted full-swing devices that
// are insensitive to the logic voltage domain (the common low-swing/
// boosted-repeater design), so only temperature affects their drive;
// this is what lets the paper's NoC keep its 12 hops/cycle while the
// shared LLC/NoC voltage domain scales to 0.55 V (§5.2.3, Table 4).
func (d Driver) Resistance(op phys.OperatingPoint, m *phys.MOSFET) float64 {
	return d.R300 / (m.MobilityFactor(op.T) * d.interconnectGain(op.T))
}

// Line is a driven point-to-point wire.
type Line struct {
	Spec     Spec
	LengthMM float64
	Driver   Driver
	// DriverSize is the driver strength in unit-driver multiples.
	DriverSize float64
}

// NewLine builds a Line with the default driver at the given size.
func NewLine(spec Spec, lengthMM, driverSize float64) Line {
	return Line{Spec: spec, LengthMM: lengthMM, Driver: DefaultDriver(), DriverSize: driverSize}
}

// ElmoreDelay returns the 50 %-crossing delay (seconds) of the
// unrepeatered line at the operating point, using the standard Elmore
// coefficients (0.69 for lumped RC stages, 0.38 for the distributed
// wire body):
//
//	t = 0.69·Rd·(Cw + CL) + Rw·(0.38·Cw + 0.69·CL)
func (l Line) ElmoreDelay(op phys.OperatingPoint, m *phys.MOSFET) float64 {
	if l.LengthMM <= 0 {
		return 0
	}
	size := l.DriverSize
	if size <= 0 {
		size = 1
	}
	rd := l.Driver.Resistance(op, m) / size
	rw := l.Spec.ResistancePerMM(op.T) * l.LengthMM
	cw := l.Spec.CapPerMM * l.LengthMM
	cl := l.Driver.LoadCap
	return 0.69*rd*(cw+cl) + rw*(0.38*cw+0.69*cl)
}

// FO4 returns the fan-out-of-4 inverter delay of the driver devices at
// the operating point — the canonical logic-speed yardstick.
func (d Driver) FO4(op phys.OperatingPoint, m *phys.MOSFET) float64 {
	return 0.69 * d.Resistance(op, m) * (4*d.Cin + d.Cpar)
}

// OptimalDelayPerMM returns the per-length delay of an ideally
// repeatered wire in this spec at the operating point, from the
// closed-form latency optimum (Bakoglu):
//
//	t/L = 1.38·√(R0·Cin·r·c) + 2·√(0.69·0.38·R0·(Cin+Cpar)·r·c)
//
// Every term scales as √(R0(op)·r(T)), so the 300K→77K speed-up of a
// long repeatered wire is √(driver-gain × wire-resistance-ratio) — the
// structure behind Fig 5(b)'s 2.25× (semi-global) and 3.38× (global).
func OptimalDelayPerMM(spec Spec, d Driver, op phys.OperatingPoint, m *phys.MOSFET) float64 {
	r0 := d.Resistance(op, m)
	rc := spec.ResistancePerMM(op.T) * spec.CapPerMM
	t1 := 1.38 * math.Sqrt(r0*d.Cin*rc)
	t2 := 2 * math.Sqrt(0.69*0.38*r0*(d.Cin+d.Cpar)*rc)
	return t1 + t2
}

// OptimalSegmentation returns the continuous latency-optimal repeater
// spacing (mm) and strength for the spec at the operating point — the
// stationary point of the Bakoglu objective that OptimalDelayPerMM
// evaluates:
//
//	size* = √(R0·c / (r·Cin)),  seg* = √(0.69·R0·(Cin+Cpar) / (0.38·r·c))
func OptimalSegmentation(spec Spec, d Driver, op phys.OperatingPoint, m *phys.MOSFET) (segMM, size float64) {
	r0 := d.Resistance(op, m)
	r := spec.ResistancePerMM(op.T)
	c := spec.CapPerMM
	size = math.Sqrt(r0 * c / (r * d.Cin))
	segMM = math.Sqrt(0.69 * r0 * (d.Cin + d.Cpar) / (0.38 * r * c))
	return segMM, size
}

// InterfaceOverhead is the fixed send/receive logic delay at the ends
// of a repeatered line (a fraction of an FO4); it makes short
// repeatered wires driver-bound, as in Fig 5(b)'s rising curves.
func InterfaceOverhead(d Driver, op phys.OperatingPoint, m *phys.MOSFET) float64 {
	const interfaceFO4 = 0.15
	return interfaceFO4 * d.FO4(op, m)
}

// OptimalRepeatedDelay returns the end-to-end delay (seconds) of a
// latency-optimally repeatered line, including the interface overhead.
func OptimalRepeatedDelay(l Line, op phys.OperatingPoint, m *phys.MOSFET) float64 {
	return l.LengthMM*OptimalDelayPerMM(l.Spec, l.Driver, op, m) + InterfaceOverhead(l.Driver, op, m)
}

// Speedup returns delay(300 K nominal)/delay(op) for the line. With
// repeated=true the repeaters are re-optimized at each operating point,
// matching the paper's methodology for Fig 5(b).
func Speedup(l Line, op phys.OperatingPoint, m *phys.MOSFET, repeated bool) float64 {
	ref := phys.Nominal45
	if !repeated {
		return l.ElmoreDelay(ref, m) / l.ElmoreDelay(op, m)
	}
	return OptimalRepeatedDelay(l, ref, m) / OptimalRepeatedDelay(l, op, m)
}

// At77 is the 77 K operating point at nominal voltage, the condition of
// the Fig 5 wire study.
func At77() phys.OperatingPoint {
	return phys.OperatingPoint{T: phys.T77, Vdd: phys.Nominal45.Vdd, Vth: phys.Nominal45.Vth}
}

// ForwardingWireLengthMM is the ALU/register-file forwarding loop
// length from Table 1 (1686 µm: 8×ALU height + regfile height).
const ForwardingWireLengthMM = 1.686

// forwardingDriverSize is the strength of the ALU bypass drivers in
// unit-driver multiples.
const forwardingDriverSize = 50

// ForwardingSpeedup returns the 300K→T speed-up of the in-core
// data-forwarding wires (the "2.81×" of 77 K Observation #1). The
// forwarding loop is an unrepeatered driven semi-global wire: repeaters
// cannot be inserted in a bidirectional bypass network.
func ForwardingSpeedup(t phys.Kelvin, m *phys.MOSFET) float64 {
	l := NewLine(Forwarding, ForwardingWireLengthMM, forwardingDriverSize)
	op := phys.OperatingPoint{T: t, Vdd: phys.Nominal45.Vdd, Vth: phys.Nominal45.Vth}
	return Speedup(l, op, m, false)
}

// Link models one NoC wire-link hop: a repeatered global wire of HopMM
// millimetres plus the pipeline latch at the hop boundary. This is the
// CACTI-NUCA-style wire-link model of §3.1.3; at 77 K the 6 mm CryoBus
// link comes out ≈3.05× faster (Fig 10).
type Link struct {
	HopMM  float64
	Driver Driver
	// LatchFraction is the share of the 300 K hop delay spent in the
	// boundary latch (logic-speed scaling, not wire-speed scaling).
	LatchFraction float64
}

// HopDelay returns the latency of one hop (seconds) at op.
func (lk Link) HopDelay(op phys.OperatingPoint, m *phys.MOSFET) float64 {
	l := Line{Spec: Global, LengthMM: lk.HopMM, Driver: lk.Driver, DriverSize: 1}
	ref := phys.Nominal45
	wire300 := OptimalRepeatedDelay(l, ref, m)
	latch300 := wire300 * lk.LatchFraction / (1 - lk.LatchFraction)
	wireOp := OptimalRepeatedDelay(l, op, m)
	return wireOp + latch300*m.GateDelayFactor(op)
}

// LinkSpeedup returns hop-delay(300 K)/hop-delay(op).
func (lk Link) LinkSpeedup(op phys.OperatingPoint, m *phys.MOSFET) float64 {
	return lk.HopDelay(phys.Nominal45, m) / lk.HopDelay(op, m)
}

// CryoBusLink returns the 6 mm wire-link of the final CryoBus design —
// the link length the wire-link model is validated at in Fig 10.
func CryoBusLink() Link {
	return Link{HopMM: 6.0, Driver: DefaultDriver(), LatchFraction: 0.051}
}

// NoCHopsPerCycle returns how many 2 mm link hops a signal traverses
// per NoC clock at the operating point. The 300 K calibration point is
// the paper's CACTI-NUCA result: 4 hops per 4 GHz cycle (0.064 ns per
// 2 mm link). Cooling scales the count by the validated long-link
// speed-up (≈3.05× at 77 K ⇒ 12 hops/cycle): multi-hop traversals are
// pipelined trains of 2 mm segments whose per-hop interface overhead
// amortizes over the train, so the long-link model is the right scale.
func NoCHopsPerCycle(op phys.OperatingPoint, m *phys.MOSFET) int {
	const base300 = 4.0
	h := int(math.Round(base300 * CryoBusLink().LinkSpeedup(op, m)))
	if h < 1 {
		h = 1
	}
	return h
}
