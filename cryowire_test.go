package cryowire

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestFacadeDeriveCryoSP(t *testing.T) {
	cw := New()
	sp := cw.DeriveCryoSP()
	if sp.CryoSP.FreqGHz < 7.6 || sp.CryoSP.FreqGHz > 8.1 {
		t.Errorf("CryoSP frequency = %v, want ≈7.84", sp.CryoSP.FreqGHz)
	}
	if sp.FreqGain300K < 1.9 || sp.FreqGain300K > 2.05 {
		t.Errorf("frequency gain vs 300K = %v, want ≈1.96", sp.FreqGain300K)
	}
}

func TestFacadeDesignCryoBus(t *testing.T) {
	bus := New().DesignCryoBus()
	if bus.BroadcastCycles != 1 {
		t.Errorf("broadcast = %v cycles, want 1", bus.BroadcastCycles)
	}
}

func TestFacadeExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 25 {
		t.Fatalf("only %d experiments exposed", len(ids))
	}
	found := map[string]bool{}
	for _, id := range ids {
		found[id] = true
	}
	for _, want := range []string{"fig5", "fig23", "table3", "abl-snoop"} {
		if !found[want] {
			t.Errorf("experiment %s missing from the facade list", want)
		}
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	r, err := RunExperiment("fig20", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Render(), "CryoBus") {
		t.Error("fig20 render missing CryoBus row")
	}
	if _, err := RunExperiment("not-a-figure", QuickOptions()); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestFacadeSimulate(t *testing.T) {
	w, err := WorkloadByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	designs := EvaluationDesigns()
	if len(designs) != 5 {
		t.Fatalf("expected the 5 Table 4 designs, got %d", len(designs))
	}
	res, err := Simulate(designs[1], w, SimConfig{WarmupCycles: 800, MeasureCycles: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Performance <= 0 {
		t.Error("zero performance from a valid simulation")
	}
	if len(ParsecWorkloads()) != 13 {
		t.Error("PARSEC workload list wrong size")
	}
}

func TestFacadeWireSpeedup(t *testing.T) {
	v, err := WireSpeedupAt("semi-global", 0.9, 77, true)
	if err != nil {
		t.Fatal(err)
	}
	if v < 2.1 || v > 2.4 {
		t.Errorf("semi-global 0.9mm repeated speedup = %v, want ≈2.25", v)
	}
	if _, err := WireSpeedupAt("quantum", 1, 77, false); err == nil {
		t.Error("unknown wire class should error")
	}
	if _, err := WireSpeedupAt("local", 1, -5, false); err == nil {
		t.Error("invalid temperature should error")
	}
}

func TestFacadeNoCLoadLatency(t *testing.T) {
	pts, err := NoCLoadLatency("cryobus", "uniform", 77, []float64{0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].AvgLatency <= 0 {
		t.Fatalf("unexpected sweep result %+v", pts)
	}
	if _, err := NoCLoadLatency("hypercube", "uniform", 77, nil); err == nil {
		t.Error("unknown design should error")
	}
	if _, err := NoCLoadLatency("mesh", "fractal", 77, nil); err == nil {
		t.Error("unknown pattern should error")
	}
	if len(NoCDesignNames()) < 5 {
		t.Error("design name list too short")
	}
}

func TestFacadeTemperatureSweep(t *testing.T) {
	pts, err := TemperatureSweep([]float64{300, 100, 77})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("sweep returned %d points", len(pts))
	}
	if pts[1].PerfPerPower <= pts[2].PerfPerPower {
		t.Error("100K should beat 77K on perf/power (Fig 27)")
	}
}

// TestPublicAPINeverPanics is the fuzz-style table test of the panic-free
// boundary: every invalid input a caller can hand the exported API must
// come back as an error, never a panic.
func TestPublicAPINeverPanics(t *testing.T) {
	mustNotPanic := func(t *testing.T, name string, f func() error) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s panicked: %v", name, r)
			}
		}()
		if err := f(); err == nil {
			t.Errorf("%s accepted invalid input", name)
		}
	}
	badTemps := [][]float64{{0}, {-5}, {300, -1, 77}, {math.NaN()}}
	for _, temps := range badTemps {
		temps := temps
		mustNotPanic(t, fmt.Sprintf("TemperatureSweep(%v)", temps), func() error {
			_, err := TemperatureSweep(temps)
			return err
		})
	}
	for _, tc := range []struct {
		class string
		temp  float64
	}{
		{"local", 0}, {"local", -273}, {"global", math.NaN()}, {"warp-drive", 77},
	} {
		tc := tc
		mustNotPanic(t, fmt.Sprintf("WireSpeedupAt(%q,%v)", tc.class, tc.temp), func() error {
			_, err := WireSpeedupAt(tc.class, 1, tc.temp, false)
			return err
		})
	}
	for _, tc := range []struct {
		design, pattern string
		temp            float64
	}{
		{"hypercube", "uniform", 77}, {"mesh", "fractal", 77}, {"mesh", "uniform", -4},
	} {
		tc := tc
		mustNotPanic(t, fmt.Sprintf("NoCLoadLatency(%q,%q,%v)", tc.design, tc.pattern, tc.temp), func() error {
			_, err := NoCLoadLatency(tc.design, tc.pattern, tc.temp, []float64{0.001})
			return err
		})
	}
	// Simulate over invalid designs: bad node counts, bad net kinds,
	// bad fault configs.
	w, err := WorkloadByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{WarmupCycles: 200, MeasureCycles: 500, Seed: 1}
	mesh60 := EvaluationDesigns()[1]
	mesh60.Cores = 60
	badNet := EvaluationDesigns()[1]
	badNet.Net = 99
	oneCore := EvaluationDesigns()[0]
	oneCore.Cores = 1
	for _, tc := range []struct {
		name string
		d    Design
	}{
		{"non-square mesh", mesh60}, {"unknown net kind", badNet}, {"single core", oneCore},
	} {
		tc := tc
		mustNotPanic(t, "Simulate/"+tc.name, func() error {
			_, err := Simulate(tc.d, w, cfg)
			return err
		})
	}
	badFault := cfg
	badFault.Fault = &FaultConfig{LinkFailureRate: 2}
	mustNotPanic(t, "Simulate/invalid fault config", func() error {
		_, err := Simulate(EvaluationDesigns()[1], w, badFault)
		return err
	})
	mustNotPanic(t, "RunExperiment/unknown id", func() error {
		_, err := RunExperiment("not-a-figure", QuickOptions())
		return err
	})
	mustNotPanic(t, "WorkloadByName/unknown", func() error {
		_, err := WorkloadByName("quake3")
		return err
	})
}

// TestFaultedSimulateDegrades exercises the public fault-injection
// path: a 10% link-failure CryoBus design completes with degraded
// results rather than hanging or panicking.
func TestFaultedSimulateDegrades(t *testing.T) {
	w, err := WorkloadByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	cryoSP := EvaluationDesigns()[4]
	cfg := SimConfig{WarmupCycles: 800, MeasureCycles: 3000, Seed: 1}
	healthy, err := Simulate(cryoSP, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = &FaultConfig{Seed: 7, LinkFailureRate: 0.10}
	degraded, err := Simulate(cryoSP, w, cfg)
	if err != nil {
		t.Fatalf("faulted simulation failed instead of degrading: %v", err)
	}
	if degraded.Performance <= 0 {
		t.Fatal("faulted simulation made no progress")
	}
	if degraded.DegradedBroadcastCycles <= healthy.DegradedBroadcastCycles {
		t.Errorf("broadcast %v cycles not degraded beyond healthy %v",
			degraded.DegradedBroadcastCycles, healthy.DegradedBroadcastCycles)
	}
}

// TestWireClassesAllDocumented exercises WireSpeedupAt over every class
// WireClassNames advertises — including the previously undocumented
// "forwarding" in-core bypass wire — repeated and unrepeated, and the
// unknown-class error path.
func TestWireClassesAllDocumented(t *testing.T) {
	classes := WireClassNames()
	want := []string{"local", "semi-global", "global", "forwarding"}
	if len(classes) != len(want) {
		t.Fatalf("WireClassNames() = %v, want %v", classes, want)
	}
	for i, c := range want {
		if classes[i] != c {
			t.Fatalf("WireClassNames()[%d] = %q, want %q", i, classes[i], c)
		}
	}
	for _, class := range classes {
		for _, repeated := range []bool{false, true} {
			v, err := WireSpeedupAt(class, 1.0, 77, repeated)
			if err != nil {
				t.Fatalf("WireSpeedupAt(%q, repeated=%v): %v", class, repeated, err)
			}
			if v <= 1 {
				t.Errorf("WireSpeedupAt(%q, repeated=%v) = %v, want > 1 at 77K", class, repeated, v)
			}
		}
	}
	if _, err := WireSpeedupAt("optical", 1.0, 77, false); err == nil {
		t.Error("WireSpeedupAt accepted an unknown class")
	}
}

// TestWireSpeedupExtremeTemperatures: temperatures the device model
// cannot price (infinite, or finite but so large or small that the
// derivation overflows) are errors, never a NaN with a nil error.
func TestWireSpeedupExtremeTemperatures(t *testing.T) {
	for _, temp := range []float64{math.Inf(1), 1e308, 1e-300} {
		for _, repeated := range []bool{false, true} {
			v, err := WireSpeedupAt("global", 1, temp, repeated)
			if err == nil {
				t.Errorf("WireSpeedupAt(global, 1, %g, repeated=%v) = %v with a nil error", temp, repeated, v)
			}
		}
	}
}

// TestNoCDesignNamesDriveLoadLatency confirms the advertised design
// list and the sweep entry point share one factory: every listed name
// sweeps successfully.
func TestNoCDesignNamesDriveLoadLatency(t *testing.T) {
	names := NoCDesignNames()
	if len(names) != 6 {
		t.Fatalf("NoCDesignNames() = %v, want 6 designs", names)
	}
	for _, name := range names {
		pts, err := NoCLoadLatency(name, "uniform", 77, []float64{0.001})
		if err != nil {
			t.Fatalf("NoCLoadLatency(%q): %v", name, err)
		}
		if len(pts) != 1 || pts[0].AvgLatency <= 0 {
			t.Fatalf("NoCLoadLatency(%q) = %+v, want one positive-latency point", name, pts)
		}
	}
}

// TestRunAllExperimentsOrdered checks the public RunAll wrapper returns
// sorted-ID outcomes matching ExperimentIDs.
func TestRunAllExperimentsOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry skipped in -short mode")
	}
	ocs := RunAllExperiments(QuickOptions())
	ids := ExperimentIDs()
	if len(ocs) != len(ids) {
		t.Fatalf("RunAllExperiments returned %d outcomes for %d IDs", len(ocs), len(ids))
	}
	for i, oc := range ocs {
		if oc.ID != ids[i] {
			t.Fatalf("outcome %d has ID %q, want %q", i, oc.ID, ids[i])
		}
		if oc.Err != nil {
			t.Errorf("%s: %v", oc.ID, oc.Err)
		}
	}
}
