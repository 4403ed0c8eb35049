package wire

import (
	"math"
	"testing"
	"testing/quick"

	"cryowire/internal/phys"
)

func approx(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, relTol*100)
	}
}

func TestResistancePerMM(t *testing.T) {
	// Global wire: ρ=2.0 µΩ·cm over a 400×800 nm cross-section is
	// 62.5 Ω/mm at 300 K.
	approx(t, "global R/mm @300K", Global.ResistancePerMM(phys.T300), 62.5, 0.01)
	// Thinner classes must be more resistive per length.
	l := Local.ResistancePerMM(phys.T300)
	s := SemiGlobal.ResistancePerMM(phys.T300)
	g := Global.ResistancePerMM(phys.T300)
	if !(l > s && s > g) {
		t.Errorf("expected local > semi-global > global R/mm, got %v %v %v", l, s, g)
	}
	// Forwarding wires are drawn 2× wide/thick ⇒ 4× lower resistance
	// than standard semi-global.
	approx(t, "forwarding vs semi-global R/mm", Forwarding.ResistancePerMM(phys.T300), s/4, 0.01)
}

func TestFig5aUnrepeateredSpeedups(t *testing.T) {
	m := phys.DefaultMOSFET()
	op := At77()
	// Fig 5(a): long wires approach the pure resistance ratio — 2.95×
	// for local, 3.69× for semi-global.
	long := 10.0
	local := NewLine(Local, long, long*10)
	semi := NewLine(SemiGlobal, long, long*10)
	approx(t, "long local speedup", Speedup(local, op, m, false), 2.95, 0.03)
	approx(t, "long semi-global speedup", Speedup(semi, op, m, false), 3.69, 0.03)
	// Short wires are driver-bound and gain much less.
	short := NewLine(Local, 0.05, 1)
	if sp := Speedup(short, op, m, false); sp > 2.0 {
		t.Errorf("short local wire speedup = %v, want driver-bound (< 2.0)", sp)
	}
}

func TestFig5bRepeatedSpeedups(t *testing.T) {
	m := phys.DefaultMOSFET()
	op := At77()
	// Fig 5(b): average-length semi-global (900 µm) 2.25×, global
	// (6.22 mm) 3.38× with latency-optimal repeaters.
	semi := NewLine(SemiGlobal, 0.9, 1)
	global := NewLine(Global, 6.22, 1)
	approx(t, "repeated semi-global 0.9mm", Speedup(semi, op, m, true), 2.25, 0.03)
	approx(t, "repeated global 6.22mm", Speedup(global, op, m, true), 3.38, 0.03)
}

func TestForwardingSpeedup(t *testing.T) {
	m := phys.DefaultMOSFET()
	// 77 K Observation #1: forwarding wires speed up 2.81×.
	approx(t, "forwarding speedup @77K", ForwardingSpeedup(phys.T77, m), 2.81, 0.02)
	// Monotone in cooling.
	s135 := ForwardingSpeedup(phys.T135, m)
	s77 := ForwardingSpeedup(phys.T77, m)
	if !(1 < s135 && s135 < s77) {
		t.Errorf("forwarding speedup not monotone: 1 < %v < %v expected", s135, s77)
	}
}

func TestSpeedupMonotoneInLength(t *testing.T) {
	m := phys.DefaultMOSFET()
	op := At77()
	prev := 0.0
	for _, l := range []float64{0.05, 0.1, 0.3, 0.6, 1, 2, 4, 8} {
		sp := Speedup(NewLine(SemiGlobal, l, 1+l*10), op, m, false)
		if sp < prev {
			t.Fatalf("unrepeatered speedup not monotone in length at %vmm: %v < %v", l, sp, prev)
		}
		prev = sp
	}
}

func TestElmoreDelayScaling(t *testing.T) {
	m := phys.DefaultMOSFET()
	ref := phys.Nominal45
	// Doubling the length of an RC-dominated wire roughly quadruples the
	// wire body term; overall delay must grow super-linearly.
	d1 := NewLine(SemiGlobal, 1, 20).ElmoreDelay(ref, m)
	d2 := NewLine(SemiGlobal, 2, 20).ElmoreDelay(ref, m)
	if d2 < 2.5*d1 {
		t.Errorf("long-wire delay not superlinear: d(2mm)=%v < 2.5·d(1mm)=%v", d2, 2.5*d1)
	}
	if z := (Line{Spec: SemiGlobal, Driver: DefaultDriver()}).ElmoreDelay(ref, m); z != 0 {
		t.Errorf("zero-length wire delay = %v, want 0", z)
	}
}

func TestOptimizeRepeatersBeatsUnrepeated(t *testing.T) {
	m := phys.DefaultMOSFET()
	ref := phys.Nominal45
	l := NewLine(Global, 6.22, 1)
	rep := optimizeRepeaters(l, ref, m)
	if rep.Delay(ref, m) >= l.ElmoreDelay(ref, m) {
		t.Error("optimal repeaters should beat the unrepeated long wire")
	}
	if rep.Segments < 2 {
		t.Errorf("6.22mm global wire should want multiple segments, got %d", rep.Segments)
	}
}

func TestDiscreteOptimumNearAnalytic(t *testing.T) {
	m := phys.DefaultMOSFET()
	ref := phys.Nominal45
	for _, length := range []float64{2, 4, 6.22, 10} {
		l := NewLine(Global, length, 1)
		discrete := optimizeRepeaters(l, ref, m).Delay(ref, m)
		analytic := OptimalRepeatedDelay(l, ref, m)
		ratio := discrete / analytic
		if ratio < 0.6 || ratio > 1.4 {
			t.Errorf("discrete/analytic optimum at %vmm = %v, want within [0.6,1.4]", length, ratio)
		}
	}
}

func TestRepeatedDelayPositiveProperty(t *testing.T) {
	m := phys.DefaultMOSFET()
	f := func(rawLen, rawSeg, rawSize uint8) bool {
		l := NewLine(Global, 0.1+float64(rawLen)/25, 1)
		r := repeated{Line: l, Segments: 1 + int(rawSeg)%40, Size: 1 + float64(rawSize)}
		return r.Delay(phys.Nominal45, m) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkSpeedupFig10(t *testing.T) {
	m := phys.DefaultMOSFET()
	op := At77()
	// Fig 10: the 6 mm CryoBus wire link is 3.05× faster at 77 K.
	approx(t, "6mm link speedup @77K", CryoBusLink().LinkSpeedup(op, m), 3.05, 0.02)
}

func TestNoCHopsPerCycle(t *testing.T) {
	m := phys.DefaultMOSFET()
	// §5.1: 4 hops/cycle at 300 K, 12 hops/cycle at 77 K.
	if h := NoCHopsPerCycle(phys.Nominal45, m); h != 4 {
		t.Errorf("hops/cycle @300K = %d, want 4", h)
	}
	if h := NoCHopsPerCycle(At77(), m); h != 12 {
		t.Errorf("hops/cycle @77K = %d, want 12", h)
	}
	// Intermediate temperature lands in between.
	op135 := phys.OperatingPoint{T: phys.T135, Vdd: phys.Nominal45.Vdd, Vth: phys.Nominal45.Vth}
	if h := NoCHopsPerCycle(op135, m); h <= 4 || h >= 12 {
		t.Errorf("hops/cycle @135K = %d, want in (4,12)", h)
	}
}

func TestHopDelayComponentsScale(t *testing.T) {
	m := phys.DefaultMOSFET()
	lk := CryoBusLink()
	d300 := lk.HopDelay(phys.Nominal45, m)
	d77 := lk.HopDelay(At77(), m)
	if d77 >= d300 {
		t.Error("hop delay must shrink at 77K")
	}
	// Speedup must be below the pure repeatered-wire speedup because of
	// the logic-speed latch overhead.
	pure := Speedup(Line{Spec: Global, LengthMM: lk.HopMM, Driver: lk.Driver, DriverSize: 1}, At77(), m, true)
	if got := d300 / d77; got >= pure {
		t.Errorf("link speedup %v should be below pure wire speedup %v", got, pure)
	}
}

func TestFO4Reasonable(t *testing.T) {
	m := phys.DefaultMOSFET()
	fo4 := DefaultDriver().FO4(phys.Nominal45, m)
	// A 45 nm-class FO4 is on the order of 15–40 ps.
	if fo4 < 10e-12 || fo4 > 50e-12 {
		t.Errorf("FO4 = %v s, want a 45nm-plausible 10–50 ps", fo4)
	}
}

func TestRepeatedDelayPanicsOnZeroSegments(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 0-segment repeated line")
		}
	}()
	m := phys.DefaultMOSFET()
	r := repeated{Line: NewLine(Global, 1, 1), Segments: 0, Size: 1}
	r.Delay(phys.Nominal45, m)
}

func TestVoltageScalingSlowsDrivers(t *testing.T) {
	// At a fixed 77 K, lowering Vdd toward Vth weakens drivers and
	// must not speed links up indefinitely; the NoC's 0.55/0.225 V
	// operating point (Table 4) must still deliver ≥12 hops/cycle
	// equivalent (voltage scaling is for power, not speed, §5.2.3).
	m := phys.DefaultMOSFET()
	opScaled := phys.OperatingPoint{T: phys.T77, Vdd: 0.55, Vth: 0.225}
	if h := NoCHopsPerCycle(opScaled, m); h < 12 {
		t.Errorf("hops/cycle at NoC voltage point = %d, want >= 12", h)
	}
}
