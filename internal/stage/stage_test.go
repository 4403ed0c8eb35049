package stage

import (
	"context"
	"math"
	"strings"
	"testing"

	"cryowire/internal/phys"
	"cryowire/internal/platform"
	"cryowire/internal/sim"
)

func TestHeatLeakAnchors(t *testing.T) {
	// The BeCu calibration anchor: one 1 m lane, 300 K → 4 K ≈ 8.3 mW.
	q, err := HeatLeak(BeCuCoax, phys.T300, phys.T4, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q < 7e-3 || q > 9e-3 {
		t.Fatalf("BeCu 1 m 300→4 K leak = %v W, want ≈ 8.3 mW", q)
	}
	// Lanes scale linearly; length divides.
	q64, _ := HeatLeak(BeCuCoax, phys.T300, phys.T4, 1.0, 64)
	if math.Abs(q64-64*q) > 1e-12 {
		t.Fatalf("64 lanes = %v, want %v", q64, 64*q)
	}
	q2m, _ := HeatLeak(BeCuCoax, phys.T300, phys.T4, 2.0, 1)
	if math.Abs(q2m-q/2) > 1e-12 {
		t.Fatalf("2 m leak = %v, want %v", q2m, q/2)
	}
	// Zero gradient leaks nothing; materials order by conductivity.
	if q0, _ := HeatLeak(BeCuCoax, phys.T77, phys.T77, 1.0, 8); q0 != 0 {
		t.Fatalf("zero-gradient leak = %v, want 0", q0)
	}
	ss, _ := HeatLeak(StainlessCoax, phys.T300, phys.T4, 1.0, 1)
	nb, _ := HeatLeak(NbTiCoax, phys.T300, phys.T4, 1.0, 1)
	cu, _ := HeatLeak(CopperLoom, phys.T300, phys.T4, 1.0, 1)
	if !(nb < ss && ss < q && q < cu) {
		t.Fatalf("material ordering broken: NbTi %v, SS %v, BeCu %v, Cu %v", nb, ss, q, cu)
	}
}

func TestHeatLeakErrors(t *testing.T) {
	cases := []struct {
		name   string
		mat    CableMaterial
		hot    phys.Kelvin
		cold   phys.Kelvin
		length float64
		lanes  int
	}{
		{"unknown material", "unobtainium", 300, 4, 1, 1},
		{"zero length", BeCuCoax, 300, 4, 0, 1},
		{"negative length", BeCuCoax, 300, 4, -1, 1},
		{"NaN length", BeCuCoax, 300, 4, math.NaN(), 1},
		{"Inf length", BeCuCoax, 300, 4, math.Inf(1), 1},
		{"zero lanes", BeCuCoax, 300, 4, 1, 0},
		{"inverted gradient", BeCuCoax, 4, 300, 1, 1},
		{"non-positive cold", BeCuCoax, 300, 0, 1, 1},
		{"NaN hot", BeCuCoax, phys.Kelvin(math.NaN()), 4, 1, 1},
		{"Inf hot", BeCuCoax, phys.Kelvin(math.Inf(1)), 4, 1, 1},
	}
	for _, tc := range cases {
		if _, err := HeatLeak(tc.mat, tc.hot, tc.cold, tc.length, tc.lanes); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestSystemWallPower(t *testing.T) {
	// Hand-built two-stage system: 100 W at 300 K, 10 W at 77 K, one
	// 64-lane BeCu trunk.
	cable := chainCable(phys.T300, phys.T77, true)
	sys := &System{
		Stages: []Stage{
			{Name: "warm", TempK: phys.T300, Components: []Component{{Name: "host", DeviceWatts: 100}}},
			{Name: "cold", TempK: phys.T77, Components: []Component{{Name: "tier", DeviceWatts: 10}}},
		},
		Cables: []Cable{cable},
	}
	stages, total, err := sys.WallPower()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 {
		t.Fatalf("got %d breakdowns", len(stages))
	}
	warm, cold := stages[0], stages[1]
	if warm.WallWatts != 100 || warm.CoolingOverhead != 0 {
		t.Fatalf("warm stage pays cooling: %+v", warm)
	}
	leak, _ := cable.Leak()
	wantHeat := 10 + leak + cable.SignalWatts
	if math.Abs(cold.HeatloadWatts-wantHeat) > 1e-12 {
		t.Fatalf("cold heatload = %v, want %v", cold.HeatloadWatts, wantHeat)
	}
	co := phys.DefaultCooling().Overhead(phys.T77)
	if math.Abs(cold.WallWatts-wantHeat*(1+co)) > 1e-9 {
		t.Fatalf("cold wall = %v, want %v", cold.WallWatts, wantHeat*(1+co))
	}
	if math.Abs(total-(warm.WallWatts+cold.WallWatts)) > 1e-9 {
		t.Fatalf("total %v != sum of stages", total)
	}
}

func TestSystemValidate(t *testing.T) {
	bad := []*System{
		{},
		{Stages: []Stage{{Name: "s", TempK: -4}}},
		{Stages: []Stage{{Name: "s", TempK: 300, Components: []Component{{Name: "c", DeviceWatts: -1}}}}},
		{Stages: []Stage{{Name: "s", TempK: 300}},
			Cables: []Cable{{Name: "c", Material: BeCuCoax, HotK: 300, ColdK: 77, LengthM: 1, Lanes: 1}}},
		{Stages: []Stage{{Name: "s", TempK: 300}},
			Cables: []Cable{{Name: "c", Material: "nope", HotK: 300, ColdK: 300, LengthM: 1, Lanes: 1}}},
	}
	for i, sys := range bad {
		if err := sys.Validate(); err == nil {
			t.Errorf("case %d: invalid system validated", i)
		}
	}
}

func TestBuildSystemChain(t *testing.T) {
	// 77+4 K split: three stages, two cables, chain 300 → 77 → 4.
	sys, err := BuildSystem(Assignment{Name: "split", TierK: 4, MemK: 77}, 50, DefaultWattsPerUnit)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Stages) != 3 || len(sys.Cables) != 2 {
		t.Fatalf("split: %d stages / %d cables, want 3/2", len(sys.Stages), len(sys.Cables))
	}
	if sys.Cables[0].HotK != 300 || sys.Cables[0].ColdK != 77 || sys.Cables[1].HotK != 77 || sys.Cables[1].ColdK != 4 {
		t.Fatalf("chain wrong: %+v", sys.Cables)
	}
	// Merged case: tier and memory share the 77 K stage.
	sys, err = BuildSystem(Assignment{Name: "77", TierK: 77, MemK: 77}, 50, DefaultWattsPerUnit)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Stages) != 2 || len(sys.Cables) != 1 {
		t.Fatalf("77K: %d stages / %d cables, want 2/1", len(sys.Stages), len(sys.Cables))
	}
	if got := len(sys.Stages[1].Components); got != 2 {
		t.Fatalf("merged cold stage has %d components, want memory+tier", got)
	}
	// Everything warm: one stage, no cables.
	sys, err = BuildSystem(Assignment{Name: "warm", TierK: 300, MemK: 300}, 50, DefaultWattsPerUnit)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Stages) != 1 || len(sys.Cables) != 0 {
		t.Fatalf("warm: %d stages / %d cables, want 1/0", len(sys.Stages), len(sys.Cables))
	}
}

func TestAssignmentValidate(t *testing.T) {
	for _, a := range DefaultAssignments() {
		if err := a.Validate(); err != nil {
			t.Errorf("default assignment %s invalid: %v", a.Name, err)
		}
	}
	// CryoCache-style cold memory under a warmer tier is expressible.
	if err := (Assignment{Name: "cold-mem", TierK: 300, MemK: 77}).Validate(); err != nil {
		t.Errorf("cold-memory assignment rejected: %v", err)
	}
	bad := []Assignment{
		{Name: "hot", TierK: 400, MemK: 300},
		{Name: "zero", TierK: 0, MemK: 77},
		{Name: "nan", TierK: math.NaN(), MemK: 77},
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("assignment %s validated", a.Name)
		}
	}
}

func TestTierWallStagedVsFlat(t *testing.T) {
	cool := phys.DefaultCooling()
	// All-warm: staged lift degenerates to the identity.
	_, wall, err := TierWall(cool, 120, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	if wall != 120 {
		t.Fatalf("300 K tier wall = %v, want 120 (no cooling)", wall)
	}
	// Cold tier: staged wall exceeds the flat (1+CO) lift — the cables
	// always add heat, never remove it.
	stages, wall77, err := TierWall(cool, 120, 77, 77)
	if err != nil {
		t.Fatal(err)
	}
	flat := 120 * (1 + cool.Overhead(phys.T77))
	if wall77 <= flat {
		t.Fatalf("staged 77 K wall %v not above flat lift %v", wall77, flat)
	}
	if len(stages) != 2 {
		t.Fatalf("77 K tier: %d stages, want host + cold", len(stages))
	}
	// The 4 K acceptance ratio: per device watt, the 4 K stage pays
	// ~25× the 77 K stage's overhead.
	stages4, _, err := TierWall(cool, 120, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	var co4, co77 float64
	for _, s := range stages4 {
		switch s.TempK {
		case 4:
			co4 = s.CoolingOverhead
		case 77:
			co77 = s.CoolingOverhead
		}
	}
	if r := co4 / co77; r < 24 || r > 27 {
		t.Fatalf("CO(4K)/CO(77K) = %v, want ≈ 25×", r)
	}
}

// TestSweepQuick runs the three canonical assignments end to end with
// short sim cycles and checks the acceptance-criteria shape: three
// reports, 4 K stage paying ~25× the 77 K overhead, byte-stable JSON.
func TestSweepQuick(t *testing.T) {
	opt := SweepOptions{
		Platform: platform.New(),
		Sim:      sim.Config{WarmupCycles: 1200, MeasureCycles: 5000, Seed: 1},
		Workers:  2,
	}
	res, err := Sweep(context.Background(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 3 {
		t.Fatalf("got %d assignments, want 3", len(res.Assignments))
	}
	for _, a := range res.Assignments {
		if a.Performance <= 0 || a.WallWatts <= 0 || a.PerfPerWatt <= 0 {
			t.Fatalf("assignment %s has non-positive metrics: %+v", a.Name, a)
		}
	}
	warm, split := res.Assignments[0], res.Assignments[2]
	if warm.Name != "all-300K" || split.Name != "77K+4K-split" {
		t.Fatalf("unexpected order: %s, %s", warm.Name, split.Name)
	}
	// The cryogenic tiers must out-clock the warm baseline...
	if res.Assignments[1].FreqGHz <= warm.FreqGHz || split.FreqGHz <= warm.FreqGHz {
		t.Fatal("cryogenic tiers do not out-clock the 300 K baseline")
	}
	// ...and the 4 K split must pay a far larger wall bill than 77 K.
	if split.WallWatts <= res.Assignments[1].WallWatts {
		t.Fatal("4 K split not paying more wall power than the 77 K system")
	}
	var co4 float64
	for _, s := range split.Stages {
		if s.TempK == 4 {
			co4 = s.CoolingOverhead
		}
	}
	if co4 < 240 || co4 > 250 {
		t.Fatalf("4 K stage CO = %v, want ≈ 246.7", co4)
	}

	// Determinism: a second sweep over the same inputs produces
	// byte-identical JSON.
	res2, err := Sweep(context.Background(), nil, SweepOptions{
		Platform: platform.New(),
		Sim:      sim.Config{WarmupCycles: 1200, MeasureCycles: 5000, Seed: 1},
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := res2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatal("sweep JSON not byte-identical across worker/lane counts")
	}
	if !strings.Contains(res.Render(), "per-stage heatload breakdown") {
		t.Fatal("Render missing breakdown section")
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := Sweep(context.Background(), nil, SweepOptions{Workload: "no-such-workload"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	bad := []Assignment{{Name: "bad", TierK: -1, MemK: 77}}
	if _, err := Sweep(context.Background(), bad, SweepOptions{}); err == nil {
		t.Fatal("invalid assignment accepted")
	}
}
