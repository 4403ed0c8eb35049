package phys

import (
	"fmt"
	"math"
)

// minVth returns the smallest threshold voltage at temperature t whose
// leakage does not exceed budgetFactor times the nominal 300 K leakage:
// LeakageFactor inverted analytically. The tests use it to check the
// leakage slack the paper's Vth scaling spends (§4.5): minVth(77K, 1.0)
// is far below the 300 K nominal 0.47 V.
func minVth(m *MOSFET, t Kelvin, budgetFactor float64) (Volts, error) {
	if budgetFactor <= 0 {
		return 0, fmt.Errorf("phys: non-positive leakage budget %v", budgetFactor)
	}
	// Solve LeakageFactor(t, vth) = budgetFactor for vth analytically:
	// tempScale·exp(−vth/(n·kT/q) + vthRef/(n·kTref/q)) = budget.
	ref := Nominal45
	tempScale := math.Pow(float64(t)/float64(ref.T), 2)
	refExp := float64(ref.Vth) / (m.SubthresholdN * thermalVoltage(ref.T))
	rhs := math.Log(budgetFactor/tempScale) - refExp
	vth := Volts(-rhs * m.SubthresholdN * thermalVoltage(m.slopeTemperature(t)))
	if vth <= 0 {
		// Leakage budget is so loose that any positive Vth works.
		return 0.01, nil
	}
	if vth >= ref.Vdd {
		return 0, fmt.Errorf("phys: no feasible Vth under leakage budget %v", budgetFactor)
	}
	return vth, nil
}
