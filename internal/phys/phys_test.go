package phys

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > relTol {
			t.Errorf("%s = %v, want ~0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, relTol*100)
	}
}

func TestBlochGruneisenBulkCopper(t *testing.T) {
	// Bulk copper: 1.72 µΩ·cm at 300 K falls to ≈0.21 µΩ·cm at 77 K
	// (Matula). The phonon fraction remaining at 77 K is ≈ 0.117.
	f := PhononResistivityFactor(T77)
	approx(t, "PhononResistivityFactor(77K)", f, 0.117, 0.10)
	if PhononResistivityFactor(T300) != 1 {
		t.Errorf("PhononResistivityFactor(300K) = %v, want 1", PhononResistivityFactor(T300))
	}
}

func TestPhononFactorMonotone(t *testing.T) {
	prev := math.Inf(1)
	for temp := Kelvin(400); temp >= 20; temp -= 5 {
		f := PhononResistivityFactor(temp)
		if f >= prev {
			t.Fatalf("phonon factor not strictly decreasing with cooling at %vK: %v >= %v", temp, f, prev)
		}
		if f < 0 {
			t.Fatalf("negative phonon factor at %vK: %v", temp, f)
		}
		prev = f
	}
}

func TestResistanceRatiosMatchPaper(t *testing.T) {
	// Fig 5(a): long RC-dominated wires speed up by the resistance
	// ratio — 2.95× (local) and 3.69× (semi-global); global wires are
	// near bulk (≈8×).
	approx(t, "local ratio", ResistanceRatio(LocalWire, T77), 2.95, 0.02)
	approx(t, "semi-global ratio", ResistanceRatio(SemiGlobalWire, T77), 3.69, 0.02)
	if r := ResistanceRatio(GlobalWire, T77); r < 7 || r > 9.5 {
		t.Errorf("global ratio = %v, want near-bulk (7..9.5)", r)
	}
}

func TestResistivityOrdering(t *testing.T) {
	for _, temp := range []Kelvin{T300, T135, T100, T77} {
		l := Resistivity(LocalWire, temp)
		s := Resistivity(SemiGlobalWire, temp)
		g := Resistivity(GlobalWire, temp)
		if !(l > s && s > g) {
			t.Errorf("at %vK expected local > semi-global > global, got %v %v %v", temp, l, s, g)
		}
		if g <= 0 {
			t.Errorf("non-positive global resistivity at %vK: %v", temp, g)
		}
	}
}

func TestResistanceRatioProperty(t *testing.T) {
	// Property: cooling never makes any wire slower, and a colder wire
	// is never slower than a warmer one.
	f := func(rawT uint16, cls uint8) bool {
		temp := Kelvin(30 + float64(rawT%270)) // 30..299 K
		c := WireClass(int(cls) % 3)
		return ResistanceRatio(c, temp) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransistorSpeedupAt77K(t *testing.T) {
	m := DefaultMOSFET()
	op := OperatingPoint{T: T77, Vdd: Nominal45.Vdd, Vth: Nominal45.Vth}
	// §4.3 Observation #1: transistors gain only ≈8 % at 77 K.
	approx(t, "transistor speedup @77K nominal V", m.TransistorSpeedup(op), 1.08, 0.01)
}

func TestGateDelayFactorAtNominal(t *testing.T) {
	m := DefaultMOSFET()
	if f := m.GateDelayFactor(Nominal45); math.Abs(f-1) > 1e-12 {
		t.Errorf("GateDelayFactor(nominal) = %v, want 1", f)
	}
}

func TestVoltageScaledSpeedups(t *testing.T) {
	m := DefaultMOSFET()
	// CryoSP operating point (Table 3): 0.64 V / 0.25 V at 77 K.
	cryoSP := OperatingPoint{T: T77, Vdd: 0.64, Vth: 0.25}
	sp := m.TransistorSpeedup(cryoSP)
	// Must be faster than the unscaled 77 K device (the whole point of
	// the Vdd/Vth scaling step) — ≈1.45× vs 1.08×.
	if sp <= 1.30 || sp >= 1.60 {
		t.Errorf("CryoSP transistor speedup = %v, want in (1.30,1.60)", sp)
	}
	// CHP-core point: 0.75/0.25 at 77 K — slightly slower logic than
	// CryoSP's point (higher Vdd ⇒ more charge) in this calibration.
	chp := m.TransistorSpeedup(OperatingPoint{T: T77, Vdd: 0.75, Vth: 0.25})
	if chp <= 1.2 {
		t.Errorf("CHP transistor speedup = %v, want > 1.2", chp)
	}
}

func TestLeakageCollapsesAt77K(t *testing.T) {
	m := DefaultMOSFET()
	same := OperatingPoint{T: T77, Vdd: Nominal45.Vdd, Vth: Nominal45.Vth}
	if f := m.LeakageFactor(same); f > 1e-10 {
		t.Errorf("leakage at 77K nominal Vth = %v, want < 1e-10 (exponential collapse)", f)
	}
	// Even with the aggressive CryoSP Vth = 0.25 V, 77 K leakage stays
	// below the 300 K nominal leakage (feasibility of voltage scaling).
	scaled := OperatingPoint{T: T77, Vdd: 0.64, Vth: 0.25}
	if f := m.LeakageFactor(scaled); f >= 1 {
		t.Errorf("leakage at CryoSP point = %v, want < 1", f)
	}
	// At 300 K the same Vth reduction explodes leakage — the reason the
	// optimization is cryogenic-only (§4.5).
	hot := OperatingPoint{T: T300, Vdd: 0.64, Vth: 0.25}
	if f := m.LeakageFactor(hot); f <= 10 {
		t.Errorf("leakage at 300K/0.25V = %v, want >> 1", f)
	}
}

func TestMinVth(t *testing.T) {
	m := DefaultMOSFET()
	v77, err := minVth(m, T77, 1.0)
	if err != nil {
		t.Fatalf("MinVth(77K): %v", err)
	}
	if v77 >= 0.25 {
		t.Errorf("MinVth(77K, 1.0) = %v, want < 0.25 (paper's choice is conservative)", v77)
	}
	v300, err := minVth(m, T300, 1.0)
	if err != nil {
		t.Fatalf("MinVth(300K): %v", err)
	}
	approx(t, "MinVth(300K, 1.0)", float64(v300), float64(Nominal45.Vth), 0.01)
	if _, err := minVth(m, T300, 0); err == nil {
		t.Error("MinVth with zero budget should fail")
	}
}

func TestMinVthMonotoneInBudget(t *testing.T) {
	m := DefaultMOSFET()
	f := func(rawBudget uint8) bool {
		b1 := 0.5 + float64(rawBudget%100)/100 // 0.5..1.49
		b2 := b1 * 2
		v1, err1 := minVth(m, T77, b1)
		v2, err2 := minVth(m, T77, b2)
		if err1 != nil || err2 != nil {
			return false
		}
		return v2 <= v1 // looser budget never requires higher Vth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOperatingPointValidation(t *testing.T) {
	cases := []struct {
		op OperatingPoint
		ok bool
	}{
		{Nominal45, true},
		{OperatingPoint{T: T77, Vdd: 0.64, Vth: 0.25}, true},
		{OperatingPoint{T: 0, Vdd: 1, Vth: 0.3}, false},
		{OperatingPoint{T: T77, Vdd: 0, Vth: 0.3}, false},
		{OperatingPoint{T: T77, Vdd: 1, Vth: 0}, false},
		{OperatingPoint{T: T77, Vdd: 0.5, Vth: 0.6}, false},
	}
	for _, c := range cases {
		err := c.op.Valid()
		if c.ok && err != nil {
			t.Errorf("Valid(%+v) = %v, want nil", c.op, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Valid(%+v) = nil, want error", c.op)
		}
	}
}

func TestCoolingOverhead(t *testing.T) {
	c := DefaultCooling()
	// §6.1.2: CO = 9.65 at 77 K.
	approx(t, "CO(77K)", c.Overhead(T77), 9.65, 0.01)
	if co := c.Overhead(T300); co != 0 {
		t.Errorf("CO(300K) = %v, want 0", co)
	}
	// Eq. (2): total = 10.65 × device at 77 K.
	approx(t, "TotalPower(1W, 77K)", c.TotalPower(1, T77), 10.65, 0.01)
}

func TestCoolingOverheadGrowsAsTemperatureDrops(t *testing.T) {
	c := DefaultCooling()
	prev := -1.0
	for temp := Kelvin(300); temp >= 20; temp -= 10 {
		co := c.Overhead(temp)
		if co < prev {
			t.Fatalf("cooling overhead decreased when cooling to %vK", temp)
		}
		prev = co
	}
	// The Fig 27 argument: cooling overhead grows super-linearly while
	// performance grows ~linearly, so the overhead at 77 K must exceed
	// the overhead at 100 K by more than the 100/77 ratio.
	if c.Overhead(T77)/c.Overhead(T100) < float64(T100)/float64(T77) {
		t.Error("overhead growth too slow to create a Fig 27 sweet spot")
	}
}

func TestMobilityFactorInterpolation(t *testing.T) {
	m := DefaultMOSFET()
	if m.MobilityFactor(T300) != 1 {
		t.Error("mobility at 300K must be 1")
	}
	approx(t, "mobility @77K", m.MobilityFactor(T77), 1.08, 1e-9)
	mid := m.MobilityFactor(T135)
	if mid <= 1 || mid >= 1.08 {
		t.Errorf("mobility at 135K = %v, want in (1, 1.08)", mid)
	}
	if m.MobilityFactor(350) != 1 {
		t.Error("mobility above 300K clamps to 1")
	}
	// Below 77 K the default card now follows the calibrated 4 K
	// extension instead of silently clamping (see cryo4k_test.go).
	sub := m.MobilityFactor(40)
	if sub < m.MobilityGain77 || sub > m.MobilityGain4 {
		t.Errorf("mobility at 40K = %v, want in [%v, %v]", sub, m.MobilityGain77, m.MobilityGain4)
	}
}

func TestWireClassString(t *testing.T) {
	if LocalWire.String() != "local" || SemiGlobalWire.String() != "semi-global" || GlobalWire.String() != "global" {
		t.Error("WireClass String() mismatch")
	}
	if WireClass(9).String() == "" {
		t.Error("unknown wire class should still stringify")
	}
}
