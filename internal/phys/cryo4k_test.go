package phys

import (
	"errors"
	"math"
	"testing"
)

// TestMobilityFactor4K pins the 4 K extension curve: the anchors are
// honored exactly, the 77→4 K segment is monotone non-decreasing
// toward the 4 K gain, and below 4 K the factor clamps (impurity
// scattering is temperature-independent).
func TestMobilityFactor4K(t *testing.T) {
	m := DefaultMOSFET()
	if !m.Has4KCard() {
		t.Fatal("default card must carry the 4 K extension")
	}
	if got := m.MobilityFactor(T77); got != m.MobilityGain77 {
		t.Fatalf("MobilityFactor(77K) = %v, want anchor %v", got, m.MobilityGain77)
	}
	if got := m.MobilityFactor(T4); got != m.MobilityGain4 {
		t.Fatalf("MobilityFactor(4K) = %v, want anchor %v", got, m.MobilityGain4)
	}
	if got := m.MobilityFactor(2); got != m.MobilityGain4 {
		t.Fatalf("MobilityFactor(2K) = %v, want clamp at %v", got, m.MobilityGain4)
	}
	prev := m.MobilityFactor(T77)
	for _, tk := range []Kelvin{60, 40, 20, 10, 4} {
		cur := m.MobilityFactor(tk)
		if cur < prev {
			t.Fatalf("MobilityFactor not monotone cooling into 4 K: µ(%vK)=%v < µ(prev)=%v", tk, cur, prev)
		}
		if cur < m.MobilityGain77 || cur > m.MobilityGain4 {
			t.Fatalf("MobilityFactor(%vK)=%v outside [%v,%v]", tk, cur, m.MobilityGain77, m.MobilityGain4)
		}
		prev = cur
	}
}

// TestMobilityFactorNo4KCard pins the satellite fix: a card without
// 4 K calibration answers sub-77 K queries with the typed ErrNo4KCard
// through ValidTemperature, while MobilityFactor keeps its documented
// clamp for 77 K-and-above callers.
func TestMobilityFactorNo4KCard(t *testing.T) {
	m := &MOSFET{Alpha: 0.545, MobilityGain77: 1.08, SubthresholdN: 1.5}
	if err := m.ValidTemperature(T4); !errors.Is(err, ErrNo4KCard) {
		t.Fatalf("ValidTemperature(4K) on a 77 K card: err = %v, want ErrNo4KCard", err)
	}
	if err := m.ValidTemperature(50); !errors.Is(err, ErrNo4KCard) {
		t.Fatalf("ValidTemperature(50K) on a 77 K card: err = %v, want ErrNo4KCard", err)
	}
	if err := m.ValidTemperature(T77); err != nil {
		t.Fatalf("ValidTemperature(77K) on a 77 K card: %v", err)
	}
	if got := m.MobilityFactor(T77); got != m.MobilityGain77 {
		t.Fatalf("MobilityFactor(77K) = %v, want %v", got, m.MobilityGain77)
	}
	// The legacy clamp survives for callers that never go below 77 K.
	if got := m.MobilityFactor(T4); got != m.MobilityGain77 {
		t.Fatalf("legacy MobilityFactor(4K) = %v, want documented clamp %v", got, m.MobilityGain77)
	}
}

// TestMobilityFactorAtDefaultCard checks that the default card accepts
// 4 K and returns the calibrated curve value there.
func TestMobilityFactorAtDefaultCard(t *testing.T) {
	m := DefaultMOSFET()
	if err := m.ValidTemperature(T4); err != nil {
		t.Fatal(err)
	}
	if got := m.MobilityFactor(T4); got != m.MobilityGain4 {
		t.Fatalf("MobilityFactor(4K) = %v, want %v", got, m.MobilityGain4)
	}
	if err := m.ValidTemperature(-1); err == nil {
		t.Fatal("ValidTemperature(-1K) must fail")
	}
}

// TestLeakage4KFiniteCollapsed checks the swing floor: leakage at 4 K
// is far below the 77 K value but finite and positive — not the
// unphysical e^-700 of the unfloored textbook slope.
func TestLeakage4KFiniteCollapsed(t *testing.T) {
	m := DefaultMOSFET()
	op4 := OperatingPoint{T: T4, Vdd: 0.64, Vth: 0.25}
	op77 := OperatingPoint{T: T77, Vdd: 0.64, Vth: 0.25}
	l4, l77 := m.LeakageFactor(op4), m.LeakageFactor(op77)
	if !(l4 > 0) || math.IsInf(l4, 0) || math.IsNaN(l4) {
		t.Fatalf("LeakageFactor(4K) = %v, want positive finite", l4)
	}
	if l4 >= l77 {
		t.Fatalf("LeakageFactor(4K) = %v not below LeakageFactor(77K) = %v", l4, l77)
	}
	// The floor keeps the collapse physical: the 4 K leakage must stay
	// within ~e^-40 of the 77 K value, not e^-700 below it.
	if ratio := l77 / l4; ratio > 1e40 {
		t.Fatalf("4 K leakage collapsed unphysically: 77K/4K ratio %v", ratio)
	}
}

// TestLeakageFloorDoesNotPerturb77K asserts the 4 K card leaves every
// 77 K-and-above number bit-identical to the pre-extension card — the
// golden byte-identity gate depends on it.
func TestLeakageFloorDoesNotPerturb77K(t *testing.T) {
	with := DefaultMOSFET()
	without := &MOSFET{Alpha: with.Alpha, MobilityGain77: with.MobilityGain77,
		SubthresholdN: with.SubthresholdN}
	for _, tk := range []Kelvin{T300, 200, T135, T100, T77} {
		for _, op := range []OperatingPoint{
			{T: tk, Vdd: 1.25, Vth: 0.47},
			{T: tk, Vdd: 0.64, Vth: 0.25},
		} {
			if a, b := with.LeakageFactor(op), without.LeakageFactor(op); a != b {
				t.Fatalf("LeakageFactor(%+v) differs with 4 K card: %v vs %v", op, a, b)
			}
			if a, b := with.MobilityFactor(tk), without.MobilityFactor(tk); a != b {
				t.Fatalf("MobilityFactor(%v) differs with 4 K card: %v vs %v", tk, a, b)
			}
			if a, b := with.GateDelayFactor(op), without.GateDelayFactor(op); a != b {
				t.Fatalf("GateDelayFactor(%+v) differs with 4 K card: %v vs %v", op, a, b)
			}
		}
	}
}

// TestResistivity4K pins the liquid-helium wire behavior: every class
// is finite and positive at 4 K, the residual floor dominates, and
// cooling 77→4 K still helps (monotone), most for the near-bulk
// global class.
func TestResistivity4K(t *testing.T) {
	for _, c := range []WireClass{LocalWire, SemiGlobalWire, GlobalWire} {
		r4 := Resistivity(c, T4)
		r77 := Resistivity(c, T77)
		if !(r4 > 0) || math.IsNaN(r4) || math.IsInf(r4, 0) {
			t.Fatalf("Resistivity(%v, 4K) = %v, want positive finite", c, r4)
		}
		if r4 > r77 {
			t.Fatalf("Resistivity(%v) not monotone: 4K %v > 77K %v", c, r4, r77)
		}
	}
	// Thin local wires are residual-dominated at 4 K: the 300K→4K
	// ratio stays close to the 77 K ratio. Global near-bulk wire keeps
	// a much larger ratio.
	local := ResistanceRatio(LocalWire, T4)
	global := ResistanceRatio(GlobalWire, T4)
	if local > 5 {
		t.Fatalf("local wire 300K→4K ratio %v: residual floor should cap it below ~4×", local)
	}
	if global < 50 {
		t.Fatalf("global wire 300K→4K ratio %v: near-bulk copper should exceed 50×", global)
	}
}

// TestCoolingOverheadTable is the satellite table-driven test: CO at
// the three stage temperatures of the multi-stage model, plus the
// Carnot edge cases.
func TestCoolingOverheadTable(t *testing.T) {
	c := DefaultCooling()
	cases := []struct {
		name string
		t    Kelvin
		want float64
		tol  float64
	}{
		{"300K ambient", T300, 0, 0},
		{"above ambient", 350, 0, 0},
		{"77K paper anchor", T77, 9.65, 0.01},
		{"4K stage", T4, (300.0 - 4.0) / (0.30 * 4.0), 1e-9},
		{"100K", T100, (300.0 - 100.0) / (0.30 * 100.0), 1e-9},
	}
	for _, tc := range cases {
		got := c.Overhead(tc.t)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%s: Overhead(%v) = %v, want %v ± %v", tc.name, tc.t, got, tc.want, tc.tol)
		}
	}
	// The headline staging ratio: CO(4 K) ≈ 25× CO(77 K).
	ratio := c.Overhead(T4) / c.Overhead(T77)
	if ratio < 24 || ratio > 27 {
		t.Fatalf("CO(4K)/CO(77K) = %v, want ≈ 25×", ratio)
	}
}

// TestCoolingOverheadEdges covers the limits: t → Ambient from below
// (overhead vanishes continuously), t → 0 (overhead grows without
// bound but stays finite for any positive t), and unphysical inputs
// cost infinite compressor power.
func TestCoolingOverheadEdges(t *testing.T) {
	c := DefaultCooling()
	if got := c.Overhead(c.Ambient); got != 0 {
		t.Fatalf("Overhead(Ambient) = %v, want 0", got)
	}
	if got := c.Overhead(c.Ambient - 1e-9); got <= 0 || got > 1e-6 {
		t.Fatalf("Overhead(Ambient-ε) = %v, want tiny positive", got)
	}
	tiny := c.Overhead(1e-9)
	if math.IsInf(tiny, 0) || math.IsNaN(tiny) || tiny < 1e9 {
		t.Fatalf("Overhead(1e-9 K) = %v, want huge but finite", tiny)
	}
	for _, bad := range []Kelvin{0, -4, Kelvin(math.NaN())} {
		if got := c.Overhead(bad); !math.IsInf(got, 1) {
			t.Fatalf("Overhead(%v) = %v, want +Inf", bad, got)
		}
	}
}

// TestCoolingOverheadMonotone is the satellite property test: colder
// always costs strictly more compressor watts per device watt, at any
// Carnot fraction.
func TestCoolingOverheadMonotone(t *testing.T) {
	for _, frac := range []float64{0.1, 0.3, 0.5, 1.0} {
		c := CoolingModel{CarnotFraction: frac, Ambient: T300}
		prev := c.Overhead(299.5)
		for tk := Kelvin(299); tk >= 1; tk-- {
			cur := c.Overhead(tk)
			if cur <= prev {
				t.Fatalf("CarnotFraction %v: Overhead(%v)=%v not strictly above Overhead(warmer)=%v",
					frac, tk, cur, prev)
			}
			prev = cur
		}
	}
}

// TestMinVth4K checks the voltage-scaling knob still solves at 4 K:
// the floored slope yields a small positive threshold under the
// nominal leakage budget.
func TestMinVth4K(t *testing.T) {
	m := DefaultMOSFET()
	vth, err := minVth(m, T4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if vth <= 0 || vth >= Nominal45.Vth {
		t.Fatalf("MinVth(4K, 1.0) = %v, want in (0, %v)", vth, Nominal45.Vth)
	}
	v77, err := minVth(m, T77, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if vth >= v77 {
		t.Fatalf("MinVth(4K) = %v not below MinVth(77K) = %v", vth, v77)
	}
}
