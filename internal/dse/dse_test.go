package dse

import (
	"context"
	"strings"
	"testing"

	"cryowire/internal/platform"
	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

// quickSim is a short, seeded simulation config for test searches.
func quickSim() sim.Config {
	return sim.Config{WarmupCycles: 400, MeasureCycles: 1600, Seed: 1}
}

func TestSpaceEnumeration(t *testing.T) {
	s := DefaultSpace(false)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 4 * 3 * 4 * 4 * 3
	if got := s.Size(); got != want {
		t.Fatalf("Size() = %d, want %d", got, want)
	}
	// Every index decodes to a distinct point and re-encodes to itself.
	seen := make(map[string]bool, s.Size())
	for i := 0; i < s.Size(); i++ {
		p := s.At(i)
		k := p.String()
		if seen[k] {
			t.Fatalf("duplicate point %s at index %d", k, i)
		}
		seen[k] = true
		if j := s.index(s.coords(i)); j != i {
			t.Fatalf("coords/index roundtrip: %d -> %d", i, j)
		}
	}
	// Axis order: workload varies fastest, temperature slowest.
	if p0, p1 := s.At(0), s.At(1); p0.Workload == p1.Workload {
		t.Errorf("workload should vary fastest: At(0)=%s At(1)=%s", p0, p1)
	}
	if p0, pn := s.At(0), s.At(s.Size()-1); p0.TempK == pn.TempK {
		t.Errorf("temperature should vary slowest: At(0)=%s At(last)=%s", p0, pn)
	}
}

func TestSpaceValidateRejects(t *testing.T) {
	base := DefaultSpace(true)
	cases := []struct {
		name   string
		mutate func(*Space)
		want   string
	}{
		{"empty axis", func(s *Space) { s.TempsK = nil }, "empty axis"},
		{"negative temperature", func(s *Space) { s.TempsK = []float64{-4, 77} }, "unphysical"},
		{"duplicate temperature", func(s *Space) { s.TempsK = []float64{77, 77} }, "duplicate temperature"},
		{"unknown mode", func(s *Space) { s.Modes = []string{"warp"} }, "unknown voltage mode"},
		{"depth out of range", func(s *Space) { s.Depths = []int{13} }, "outside the derivable range"},
		{"unknown net", func(s *Space) { s.Nets = []string{"token-ring"} }, "unknown net"},
		{"bad workload", func(s *Space) { s.Workloads[0].ILP = -1 }, "ILP"},
		{"names out of sync", func(s *Space) { s.WorkloadNames = nil }, "out of sync"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := DefaultSpace(true)
			// Deep-copy the slices the mutation touches.
			s.TempsK = append([]float64(nil), base.TempsK...)
			s.Modes = append([]string(nil), base.Modes...)
			s.Depths = append([]int(nil), base.Depths...)
			s.Nets = append([]string(nil), base.Nets...)
			s.Workloads = append([]workload.Profile(nil), base.Workloads...)
			s.WorkloadNames = append([]string(nil), base.WorkloadNames...)
			tc.mutate(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestNeighbors(t *testing.T) {
	s := DefaultSpace(false)
	// An interior point has two neighbors per axis with >2 values and
	// at most two for the rest; all distinct, all valid, all sorted.
	i := s.Size() / 2
	nb := s.Neighbors(i)
	if len(nb) == 0 {
		t.Fatal("no neighbors")
	}
	prev := -1
	for _, j := range nb {
		if j == i {
			t.Fatalf("Neighbors(%d) contains the point itself", i)
		}
		if j <= prev {
			t.Fatalf("Neighbors(%d) = %v not strictly ascending", i, nb)
		}
		prev = j
		if j < 0 || j >= s.Size() {
			t.Fatalf("neighbor %d outside the space", j)
		}
		// Each neighbor differs from i along exactly one axis by one step.
		ci, cj := s.coords(i), s.coords(j)
		diff := 0
		for ax := 0; ax < 5; ax++ {
			d := ci[ax] - cj[ax]
			if d != 0 {
				diff++
				if d != 1 && d != -1 {
					t.Fatalf("neighbor %d is %d steps away on axis %d", j, d, ax)
				}
			}
		}
		if diff != 1 {
			t.Fatalf("neighbor %d differs on %d axes", j, diff)
		}
	}
	// Corner point: index 0 has exactly one neighbor per axis.
	if got, want := len(s.Neighbors(0)), 5; got != want {
		t.Errorf("corner Neighbors(0) = %d, want %d", got, want)
	}
}

func TestStrategiesProposeWholeSpaceDeterministically(t *testing.T) {
	s := DefaultSpace(true)
	for _, name := range Strategies() {
		t.Run(name, func(t *testing.T) {
			run := func() []int {
				st, err := NewStrategy(name, 42)
				if err != nil {
					t.Fatal(err)
				}
				var order []int
				seen := make(map[int]bool)
				hist := []HistoryEntry{}
				for len(seen) < s.Size() {
					batch := st.Next(s, hist, s.Size()-len(seen))
					if len(batch) == 0 {
						break
					}
					for _, i := range batch {
						if !seen[i] {
							seen[i] = true
							order = append(order, i)
							// Synthesize a deterministic fake eval so the
							// adaptive strategy has a landscape to climb.
							hist = append(hist, HistoryEntry{
								Index: i,
								Point: s.At(i),
								Eval:  Eval{PerfPerWatt: float64((i*7)%13) + float64(i)/100},
							})
						}
					}
				}
				return order
			}
			a, b := run(), run()
			if len(a) != s.Size() {
				t.Fatalf("%s covered %d/%d points", name, len(a), s.Size())
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s not deterministic: replay diverges at step %d (%d vs %d)", name, i, a[i], b[i])
				}
			}
		})
	}
}

// TestCryoSPOnFrontier is the acceptance check: searching the quick
// space at 77 K must surface the paper's headline CryoSP+CryoBus design
// point on the Pareto frontier, at exactly the Table 3 frequency.
func TestCryoSPOnFrontier(t *testing.T) {
	pf := platform.New()
	res, err := Run(context.Background(), Config{
		Space:    DefaultSpace(true),
		Strategy: StrategyGrid,
		Sim:      quickSim(),
		Platform: pf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != res.SpaceSize {
		t.Fatalf("grid evaluated %d/%d", res.Evaluated, res.SpaceSize)
	}
	wantFreq := pf.CryoSP().FreqGHz
	found := false
	for _, c := range res.Frontier {
		p := c.Point
		if p.TempK == 77 && p.Mode == ModeCryoSP && p.Depth == 17 && p.Net == NetCryoBus {
			found = true
			if c.Eval.FreqGHz != wantFreq {
				t.Errorf("CryoSP frontier point at %.4f GHz, want exactly %.4f", c.Eval.FreqGHz, wantFreq)
			}
		}
	}
	if !found {
		t.Fatalf("77K CryoSP+CryoBus point missing from frontier:\n%s", res.Render())
	}
	if txt := res.Render(); !strings.Contains(txt, "Pareto frontier") {
		t.Errorf("Render() missing header:\n%s", txt)
	}
}

func TestRunBudgetAndUnknownStrategy(t *testing.T) {
	if _, err := Run(context.Background(), Config{Space: DefaultSpace(true), Strategy: "simulated-annealing"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	res, err := Run(context.Background(), Config{
		Space:    DefaultSpace(true),
		Strategy: StrategyRandom,
		Budget:   3,
		Seed:     7,
		Sim:      quickSim(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 3 {
		t.Fatalf("budget ignored: evaluated %d", res.Evaluated)
	}
}

// A staged candidate whose temperatures the cooling chain rejects must
// fail, not be priced as if it were unstaged. Space.Validate keeps such
// points out of every search, so only a direct call reaches this path.
func TestFinishEvalReturnsStagedPricingError(t *testing.T) {
	pf := platform.New()
	pt := Point{TempK: 77, Mode: "cryosp", Depth: 14, Net: NetCryoBus, Workload: "x264", StageK: 400}
	_, err := finishEval(pf, pt, pf.CryoSP(), sim.Result{IPC: 1, Performance: 1})
	if err == nil || !strings.Contains(err.Error(), "above the 300 K host") {
		t.Fatalf("finishEval(%s) error = %v, want the stage chain's rejection", pt, err)
	}
}
