package phys

import (
	"errors"
	"fmt"
	"math"
)

// Volts is an electric potential.
type Volts float64

// OperatingPoint is a (temperature, supply, threshold) triple at which a
// transistor circuit runs. The paper's voltage-scaled designs (CHP-core,
// CryoSP) pick aggressive operating points that are only feasible at
// cryogenic temperatures because of the collapsed leakage.
type OperatingPoint struct {
	T   Kelvin
	Vdd Volts
	Vth Volts
}

// Nominal45 is the nominal FreePDK45-like operating point the paper's
// 300 K baseline uses (Table 3: Vdd 1.25 V, Vth 0.47 V).
var Nominal45 = OperatingPoint{T: T300, Vdd: 1.25, Vth: 0.47}

// Valid reports whether the operating point is physically meaningful.
func (op OperatingPoint) Valid() error {
	switch {
	case math.IsNaN(float64(op.T)) || math.IsNaN(float64(op.Vdd)) || math.IsNaN(float64(op.Vth)):
		return fmt.Errorf("phys: NaN operating point (T=%v Vdd=%v Vth=%v)", op.T, op.Vdd, op.Vth)
	case op.T <= 0:
		return fmt.Errorf("phys: non-positive temperature %v", op.T)
	case op.Vdd <= 0:
		return fmt.Errorf("phys: non-positive Vdd %v", op.Vdd)
	case op.Vth <= 0:
		return fmt.Errorf("phys: non-positive Vth %v", op.Vth)
	case op.Vth >= op.Vdd:
		return fmt.Errorf("phys: Vth %v >= Vdd %v (no overdrive)", op.Vth, op.Vdd)
	}
	return nil
}

// MOSFET is an empirical cryogenic transistor model card in the spirit of
// cryo-MOSFET from CC-Model: given an operating point it yields drive
// strength, gate delay and leakage. It uses
//
//   - an alpha-power on-current law  Ion ∝ µ(T)·(Vdd−Vth)^Alpha,
//   - a mobility factor µ(T) that improves modestly with cooling
//     (phonon-scattering-limited, saturating at low T), and
//   - the textbook subthreshold leakage model
//     Ileak ∝ (T/300)²·exp(−Vth·q/(n·k·T)).
//
// Alpha and the 77 K mobility gain are calibrated to the paper's anchor
// points: +8 % transistor speed at 77 K at nominal voltage, CryoSP at
// 7.84 GHz with Vdd/Vth = 0.64/0.25 V and CHP-core near 6.1 GHz with
// 0.75/0.25 V (DESIGN.md, "Key model anchors").
type MOSFET struct {
	// Alpha is the velocity-saturation exponent of the alpha-power law.
	Alpha float64
	// MobilityGain77 is µ(77K)/µ(300K).
	MobilityGain77 float64
	// SubthresholdN is the subthreshold ideality factor n.
	SubthresholdN float64

	// --- 4 K extension card (liquid-helium operation) -----------------
	//
	// The fields below extend the card to the liquid-helium stage of
	// the multi-stage system model, in the spirit of QIsim's
	// CryoMOSFET_4K pipeline and the generic cryo-CMOS modeling
	// platform (arXiv 2211.05309) calibrated against liquid-helium
	// characterization (arXiv 1811.11497). A card with MobilityGain4
	// == 0 has no 4 K data: sub-77 K queries through ValidTemperature
	// return ErrNo4KCard instead of silently extrapolating.

	// MobilityGain4 is µ(4K)/µ(300K). Phonon scattering is gone at
	// liquid helium; ionized-impurity and surface-roughness scattering
	// cap the gain only slightly above the 77 K value. 0 means the
	// card carries no 4 K calibration.
	MobilityGain4 float64
	// SubthresholdFloorK is the effective electronic temperature floor
	// of the subthreshold slope. Measured 4 K devices do not show the
	// theoretical kT/q·ln10 ≈ 0.8 mV/dec swing — band tails and
	// interface states saturate the swing at an equivalent temperature
	// of a few tens of kelvin — so the leakage exponential evaluates
	// at max(T, SubthresholdFloorK). 0 disables the floor (textbook
	// slope at every temperature).
	SubthresholdFloorK Kelvin
}

// DefaultMOSFET returns the calibrated 45 nm-class model card used by
// every CryoWire experiment. The card includes the 4 K extension:
// µ(4K)/µ(300K) = 1.12 (impurity-scattering-limited, a little above
// the 77 K gain) and a 35 K subthreshold-swing floor (the band-tail
// saturation liquid-helium characterization reports), so every
// temperature from 300 K down to liquid helium is an explicit
// calibrated curve.
func DefaultMOSFET() *MOSFET {
	return &MOSFET{
		Alpha:              0.545,
		MobilityGain77:     1.08,
		SubthresholdN:      1.5,
		MobilityGain4:      1.12,
		SubthresholdFloorK: 35,
	}
}

// ErrNo4KCard reports a sub-77 K query against a model card that
// carries no 4 K calibration data. Callers either configure
// MobilityGain4 (DefaultMOSFET does) or keep their operating points at
// 77 K and above.
var ErrNo4KCard = errors.New("phys: model card has no 4 K calibration (MobilityGain4 unset) for sub-77 K operation")

// Has4KCard reports whether the card carries liquid-helium calibration.
func (m *MOSFET) Has4KCard() bool { return m.MobilityGain4 > 0 }

// ValidTemperature reports whether the card can model temperature t:
// t must be physical, and temperatures below 77 K need the 4 K
// extension card. This is the validation gate the platform layer runs
// before deriving artifacts at a new operating point.
func (m *MOSFET) ValidTemperature(t Kelvin) error {
	if err := ValidTemperature(t); err != nil {
		return err
	}
	if t < T77 && !m.Has4KCard() {
		return fmt.Errorf("%w (temperature %g K)", ErrNo4KCard, float64(t))
	}
	return nil
}

// thermalVoltage returns kT/q in volts.
func thermalVoltage(t Kelvin) float64 {
	const kOverQ = 8.617333262e-5 // V/K
	return kOverQ * float64(t)
}

// slopeTemperature returns the temperature the subthreshold slope
// evaluates at: the physical temperature, floored at the card's
// SubthresholdFloorK (band-tail swing saturation — see the field doc).
// Above the floor (every 77 K-and-up point) this is the identity, so
// the 4 K extension never perturbs the calibrated 77–300 K leakage.
func (m *MOSFET) slopeTemperature(t Kelvin) Kelvin {
	if m.SubthresholdFloorK > 0 && t < m.SubthresholdFloorK {
		return m.SubthresholdFloorK
	}
	return t
}

// MobilityFactor returns µ(T)/µ(300K). Carrier mobility in silicon is
// phonon-limited near room temperature (µ ∝ T^−γ) but saturates at low
// temperature as impurity scattering takes over; the model interpolates
// so that the 77 K value equals the calibrated MobilityGain77 and the
// curve is monotone between 300 K and 77 K.
//
// Below 77 K the behavior depends on the 4 K extension card: with
// MobilityGain4 set the curve continues log-linearly to the (4 K,
// MobilityGain4) anchor and clamps below it (impurity scattering is
// temperature-independent, so µ is flat under liquid helium); without
// it the legacy clamp to MobilityGain77 applies. Callers that must
// distinguish "calibrated curve" from "uncalibrated clamp" check
// ValidTemperature first, which returns ErrNo4KCard in the latter case.
func (m *MOSFET) MobilityFactor(t Kelvin) float64 {
	if t >= T300 {
		return 1
	}
	if t <= T77 {
		if !m.Has4KCard() {
			return m.MobilityGain77
		}
		if t <= T4 {
			return m.MobilityGain4
		}
		// Log-linear interpolation between the 77 K and 4 K anchors.
		frac := math.Log(float64(T77)/float64(t)) / math.Log(float64(T77)/float64(T4))
		return m.MobilityGain77 + (m.MobilityGain4-m.MobilityGain77)*frac
	}
	// Log-linear interpolation in temperature between the anchors.
	frac := math.Log(float64(T300)/float64(t)) / math.Log(float64(T300)/float64(T77))
	return 1 + (m.MobilityGain77-1)*frac
}

// OnCurrentFactor returns Ion(op)/Ion(Nominal45) — the relative drive
// strength of the transistor at the given operating point.
func (m *MOSFET) OnCurrentFactor(op OperatingPoint) float64 {
	ref := Nominal45
	num := m.MobilityFactor(op.T) * math.Pow(float64(op.Vdd-op.Vth), m.Alpha)
	den := m.MobilityFactor(ref.T) * math.Pow(float64(ref.Vdd-ref.Vth), m.Alpha)
	return num / den
}

// GateDelayFactor returns t_gate(op)/t_gate(Nominal45). Gate delay is
// CV/I with the switched charge proportional to Vdd:
//
//	delay ∝ Vdd / Ion(T, Vdd, Vth)
//
// so lowering Vdd both reduces the charge and the drive; the net effect
// depends on Alpha and the overdrive Vdd−Vth.
func (m *MOSFET) GateDelayFactor(op OperatingPoint) float64 {
	ref := Nominal45
	return (float64(op.Vdd) / float64(ref.Vdd)) / m.OnCurrentFactor(op)
}

// TransistorSpeedup returns the transistor-only speedup at op relative
// to the nominal 300 K point (the reciprocal of GateDelayFactor). At
// (77 K, nominal voltage) this is the paper's "8 %" number.
// Kept for tests: it pins EXPERIMENTS.md's "transistor speed-up @77 K, nominal voltage" row.
func (m *MOSFET) TransistorSpeedup(op OperatingPoint) float64 {
	return 1 / m.GateDelayFactor(op)
}

// LeakageFactor returns Ileak(op)/Ileak(Nominal45). The exponential
// sensitivity to Vth/T is what makes cryogenic Vth scaling free: at
// 77 K even Vth = 0.25 V leaks orders of magnitude less than the 300 K
// nominal device. Below the card's subthreshold-swing floor the slope
// stops steepening (slopeTemperature), so 4 K leakage is "collapsed
// but finite" rather than the unphysical e^-700 of the textbook model.
func (m *MOSFET) LeakageFactor(op OperatingPoint) float64 {
	ref := Nominal45
	exp := func(o OperatingPoint) float64 {
		return -float64(o.Vth) / (m.SubthresholdN * thermalVoltage(m.slopeTemperature(o.T)))
	}
	tempScale := math.Pow(float64(op.T)/float64(ref.T), 2)
	return tempScale * math.Exp(exp(op)-exp(ref))
}
