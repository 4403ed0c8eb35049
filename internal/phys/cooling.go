package phys

import (
	"fmt"
	"math"
)

// ValidTemperature reports whether t is a physically meaningful
// operating temperature, positive and finite — the cooling-model mirror
// of OperatingPoint.Valid. Public entry points (cryowire.TemperatureSweep)
// validate user-supplied temperatures through this before computing
// overheads.
func ValidTemperature(t Kelvin) error {
	switch {
	case math.IsNaN(float64(t)) || t <= 0:
		return fmt.Errorf("phys: non-positive temperature %v", t)
	case math.IsInf(float64(t), 1):
		return fmt.Errorf("phys: infinite temperature %v", t)
	}
	return nil
}

// CoolingModel converts device power into total (device + cryocooler)
// power. The paper assumes an LN-recycling Stinger cooling plant whose
// recurring compressor power dominates all other cooling costs (§6.1.2).
type CoolingModel struct {
	// CarnotFraction is the fraction of the ideal Carnot coefficient of
	// performance the real cryocooler achieves. The paper's 77 K
	// overhead of 9.65 W/W corresponds to 30 % of Carnot, which is also
	// the value used for the temperature sweep in Fig 27.
	CarnotFraction float64
	// Ambient is the heat-rejection temperature.
	Ambient Kelvin
}

// DefaultCooling returns the paper's cooling model (30 % of Carnot,
// 300 K ambient ⇒ CO(77 K) = 9.65).
func DefaultCooling() CoolingModel {
	return CoolingModel{CarnotFraction: 0.30, Ambient: T300}
}

// Overhead returns CO(T): the compressor watts required to remove one
// watt of heat at temperature t. Eq. (1) of the paper with
// CO = (T_amb − T) / (η_carnot · T). An unphysical (non-positive)
// temperature costs infinite compressor power; callers taking
// user-supplied temperatures should reject them up front with
// ValidTemperature.
func (c CoolingModel) Overhead(t Kelvin) float64 {
	if err := ValidTemperature(t); err != nil {
		return math.Inf(1)
	}
	if t >= c.Ambient {
		return 0 // no refrigeration needed at or above ambient
	}
	return float64(c.Ambient-t) / (c.CarnotFraction * float64(t))
}

// TotalPower implements Eq. (2): P_total = (1 + CO(T)) · P_dev.
func (c CoolingModel) TotalPower(deviceWatts float64, t Kelvin) float64 {
	return deviceWatts * (1 + c.Overhead(t))
}
