package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func allProfiles() []Profile {
	var out []Profile
	out = append(out, Parsec()...)
	out = append(out, Spec2006()...)
	out = append(out, Spec2017()...)
	out = append(out, CloudSuiteProfiles()...)
	return out
}

func TestAllProfilesValid(t *testing.T) {
	for _, p := range allProfiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestSuiteSizes(t *testing.T) {
	if got := len(Parsec()); got != 13 {
		t.Errorf("PARSEC 2.1 has %d profiles, want 13", got)
	}
	if got := len(Spec2006()); got < 8 {
		t.Errorf("SPEC2006 has %d profiles, want ≥8", got)
	}
	if got := len(Spec2017()); got < 6 {
		t.Errorf("SPEC2017 has %d profiles, want ≥6", got)
	}
	if got := len(CloudSuiteProfiles()); got < 3 {
		t.Errorf("CloudSuite has %d profiles, want ≥3", got)
	}
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range allProfiles() {
		if seen[p.Name] {
			t.Errorf("duplicate profile name %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	if p.Suite != PARSEC {
		t.Errorf("streamcluster suite = %v", p.Suite)
	}
	if _, err := ByName("quake3"); err == nil {
		t.Error("unknown profile should error")
	}
}

func TestStreamclusterIsBarrierOutlier(t *testing.T) {
	// §6.2: streamcluster's CryoBus gain comes from its barrier count —
	// it must dominate every other PARSEC profile by a wide margin.
	sc, _ := ByName("streamcluster")
	for _, p := range Parsec() {
		if p.Name == "streamcluster" {
			continue
		}
		if p.BarriersPerMI*3 > sc.BarriersPerMI {
			t.Errorf("%s barrier rate %v too close to streamcluster's %v", p.Name, p.BarriersPerMI, sc.BarriersPerMI)
		}
	}
}

func TestFig18InjectionBands(t *testing.T) {
	// Fig 18's qualitative ordering: PARSEC sits lowest, SPEC above it,
	// CloudSuite at the top; the 77 K shared bus (saturation ≈ 0.005)
	// covers PARSEC but not the upper suites.
	pLo, pHi := SuiteInjectionBand(PARSEC)
	_, s6Hi := SuiteInjectionBand(SPEC2006)
	_, s7Hi := SuiteInjectionBand(SPEC2017)
	_, cHi := SuiteInjectionBand(CloudSuite)
	if pLo <= 0 || pHi <= pLo {
		t.Errorf("degenerate PARSEC band [%v,%v]", pLo, pHi)
	}
	if !(s6Hi > pHi && cHi >= s6Hi) {
		t.Errorf("band ordering wrong: PARSEC hi %v, SPEC06 hi %v, Cloud hi %v", pHi, s6Hi, cHi)
	}
	if s7Hi <= pHi {
		t.Errorf("SPEC2017 top %v should exceed PARSEC top %v", s7Hi, pHi)
	}
	// The 77K shared bus saturates near 0.005 (3-cycle broadcasts, 64
	// nodes): PARSEC fits essentially below the knee (Fig 17 attributes
	// only 8.1 % to residual bus effects), CloudSuite does not; the
	// 300 K bus knee (≈0.002) sits inside the PARSEC band, which is why
	// the 300 K bus "cannot run even the PARSEC workloads".
	const bus77Sat = 0.0052
	const bus300Sat = 0.002
	if pHi > bus77Sat*1.1 {
		t.Errorf("PARSEC top %v exceeds the 77K bus saturation %v — Fig 18 says it fits", pHi, bus77Sat)
	}
	if !(pLo < bus300Sat && bus300Sat < pHi) {
		t.Errorf("300K bus knee %v should fall inside the PARSEC band [%v,%v]", bus300Sat, pLo, pHi)
	}
	if cHi < bus77Sat {
		t.Error("CloudSuite should overload the plain 77K shared bus")
	}
	if s6Hi < bus77Sat {
		t.Error("SPEC2006 should overload the plain 77K shared bus (Guideline #2)")
	}
}

func TestSpecRateModeHasNoSharing(t *testing.T) {
	for _, p := range append(Spec2006(), Spec2017()...) {
		if p.SharedFraction != 0 {
			t.Errorf("%s: rate-mode SPEC must have zero sharing", p.Name)
		}
		if p.BarriersPerMI != 0 {
			t.Errorf("%s: rate-mode SPEC must have no barriers", p.Name)
		}
	}
}

func TestInjectionRateProperty(t *testing.T) {
	f := func(rawIPC, rawRatio uint8) bool {
		p, _ := ByName("canneal")
		ipc := 0.1 + float64(rawIPC)/64
		ratio := 0.5 + float64(rawRatio)/128
		r := p.InjectionRate(ipc, ratio)
		// Linear in both arguments and positive.
		return r > 0 && r == p.L2MPKI/1000*ipc*ratio
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryBoundWorkloadsFlagged(t *testing.T) {
	// §6.2 calls bodytrack and x264 memory-bounded relative to the
	// PARSEC mean — their L2MPKI·L3MissRatio (DRAM pressure) must sit
	// above the PARSEC median.
	med := func() float64 {
		var vals []float64
		for _, p := range Parsec() {
			vals = append(vals, p.L2MPKI*p.L3MissRatio)
		}
		// insertion sort (13 elements)
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		return vals[len(vals)/2]
	}()
	for _, name := range []string{"bodytrack", "x264"} {
		p, _ := ByName(name)
		if p.L2MPKI*p.L3MissRatio <= med {
			t.Errorf("%s DRAM pressure %v not above PARSEC median %v", name, p.L2MPKI*p.L3MissRatio, med)
		}
	}
}

func TestSuiteString(t *testing.T) {
	for s, want := range map[Suite]string{PARSEC: "PARSEC 2.1", SPEC2006: "SPEC2006", SPEC2017: "SPEC2017", CloudSuite: "CloudSuite"} {
		if s.String() != want {
			t.Errorf("Suite(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if Suite(9).String() == "" {
		t.Error("unknown suite should stringify")
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	bad := []Profile{
		{Name: "a", ILP: 0, MLP: 2},
		{Name: "b", ILP: 1, MLP: 0.5},
		{Name: "c", ILP: 1, MLP: 2, L3MissRatio: 1.5},
		{Name: "d", ILP: 1, MLP: 2, SharedFraction: -0.1},
		{Name: "e", ILP: 1, MLP: 2, L2MPKI: -1},
		{Name: "f", ILP: 1, MLP: 2, BarriersPerMI: -3},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%s) should fail", p.Name)
		}
	}
}

// TestValidateRejects table-drives the boundary checks: every way a
// profile can be implausible must be caught with a pointed error.
func TestValidateRejects(t *testing.T) {
	valid := func() Profile {
		return Profile{Name: "probe", ILP: 2, BranchMPKI: 8, L1MPKI: 10, L2MPKI: 2,
			L3MissRatio: 0.3, SharedFraction: 0.4, MLP: 3, BarriersPerMI: 5, LockMPKI: 0.2}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("baseline probe profile invalid: %v", err)
	}
	nan := math.NaN()
	cases := []struct {
		name   string
		mutate func(*Profile)
		want   string
	}{
		{"zero ILP", func(p *Profile) { p.ILP = 0 }, "non-positive ILP"},
		{"negative ILP", func(p *Profile) { p.ILP = -1 }, "non-positive ILP"},
		{"negative BranchMPKI", func(p *Profile) { p.BranchMPKI = -2 }, "negative BranchMPKI"},
		{"negative L1MPKI", func(p *Profile) { p.L1MPKI = -1 }, "negative MPKI"},
		{"negative L2MPKI", func(p *Profile) { p.L2MPKI = -1 }, "negative MPKI"},
		{"L3MissRatio above 1", func(p *Profile) { p.L3MissRatio = 1.5 }, "outside [0,1]"},
		{"L3MissRatio negative", func(p *Profile) { p.L3MissRatio = -0.1 }, "outside [0,1]"},
		{"SharedFraction above 1", func(p *Profile) { p.SharedFraction = 2 }, "outside [0,1]"},
		{"MLP below 1", func(p *Profile) { p.MLP = 0.5 }, "below 1"},
		{"negative barriers", func(p *Profile) { p.BarriersPerMI = -1 }, "negative barrier rate"},
		{"negative LockMPKI", func(p *Profile) { p.LockMPKI = -0.1 }, "negative LockMPKI"},
		{"NaN ILP", func(p *Profile) { p.ILP = nan }, "ILP is NaN"},
		{"NaN LockMPKI", func(p *Profile) { p.LockMPKI = nan }, "LockMPKI is NaN"},
		{"NaN L2MPKI", func(p *Profile) { p.L2MPKI = nan }, "L2MPKI is NaN"},
		{"Inf MLP", func(p *Profile) { p.MLP = math.Inf(1) }, "MLP is +Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := valid()
			tc.mutate(&p)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestValidateAll(t *testing.T) {
	for _, p := range allProfiles() {
		if err := p.Validate(); err != nil {
			t.Fatalf("built-in suites: %v", err)
		}
	}
	bad := allProfiles()[3]
	bad.LockMPKI = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a corrupted profile")
	}
}
