package dse

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cryowire/internal/platform"
	"cryowire/internal/surrogate"
)

// gridPrior runs a full grid search over the quick space with a
// journal and returns the journal path plus the grid result.
func gridPrior(t *testing.T, pf *platform.Platform, dir string) (string, *Result) {
	t.Helper()
	jpath := filepath.Join(dir, "grid.jsonl")
	res, err := Run(context.Background(), Config{
		Space:    DefaultSpace(true),
		Strategy: StrategyGrid,
		Sim:      quickSim(),
		Platform: pf,
		Journal:  jpath,
	})
	if err != nil {
		t.Fatal(err)
	}
	return jpath, res
}

// TestScreenVerifiesFrontierWithFewerSims is the tentpole acceptance
// check: screening the quick space against a full-grid prior must
// reach the same Pareto frontier — the 77 K CryoSP+CryoBus headline
// point included — with at least 3x fewer simulated candidates, every
// one of them sim-verified (the screen journal's entries are a
// byte-identical subset of the grid journal's).
func TestScreenVerifiesFrontierWithFewerSims(t *testing.T) {
	pf := platform.New()
	dir := t.TempDir()
	prior, grid := gridPrior(t, pf, dir)

	skippedBefore := surrogate.ReadStats().SimsSkipped
	spath := filepath.Join(dir, "screen.jsonl")
	scr, err := Run(context.Background(), Config{
		Space:    DefaultSpace(true),
		Strategy: StrategyScreen,
		Sim:      quickSim(),
		Platform: pf,
		Priors:   []string{prior},
		Journal:  spath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if scr.Evaluated*3 > grid.Evaluated {
		t.Fatalf("screen simulated %d of %d candidates, want at least 3x fewer", scr.Evaluated, grid.Evaluated)
	}
	if skipped := surrogate.ReadStats().SimsSkipped - skippedBefore; int(skipped) != grid.Evaluated-scr.Evaluated {
		t.Errorf("sims-skipped counter advanced by %d, want %d", skipped, grid.Evaluated-scr.Evaluated)
	}

	// The verified frontier must equal the exhaustive grid's, CryoSP
	// headline point included.
	ga, err := grid.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sa, err := scr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	gf := string(ga[bytes.Index(ga, []byte(`"frontier"`)):])
	sf := string(sa[bytes.Index(sa, []byte(`"frontier"`)):])
	if gf != sf {
		t.Fatalf("screen frontier diverged from grid frontier:\n--- grid ---\n%s\n--- screen ---\n%s", gf, sf)
	}
	found := false
	for _, c := range scr.Frontier {
		p := c.Point
		if p.TempK == 77 && p.Mode == ModeCryoSP && p.Depth == 17 && p.Net == NetCryoBus {
			found = true
			if want := pf.CryoSP().FreqGHz; c.Eval.FreqGHz != want {
				t.Errorf("CryoSP frontier point at %.4f GHz, want exactly %.4f — frontier must be sim-verified, not predicted", c.Eval.FreqGHz, want)
			}
		}
	}
	if !found {
		t.Fatalf("77K CryoSP+CryoBus point missing from screened frontier:\n%s", scr.Render())
	}

	// Every screen journal entry is byte-identical to a grid journal
	// entry: nothing screened made it to disk unverified.
	gridLines := make(map[string]bool)
	graw, err := os.ReadFile(prior)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range bytes.Split(bytes.TrimSpace(graw), []byte("\n"))[1:] {
		gridLines[string(l)] = true
	}
	sraw, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	slines := bytes.Split(bytes.TrimSpace(sraw), []byte("\n"))
	if len(slines)-1 != scr.Evaluated {
		t.Fatalf("screen journal has %d entries, want %d", len(slines)-1, scr.Evaluated)
	}
	for _, l := range slines[1:] {
		if !gridLines[string(l)] {
			t.Fatalf("screen journal entry not in the grid journal (prediction leaked to disk?): %s", l)
		}
	}
}

// TestSurrogateStrategiesDeterministic: with equal seed and priors,
// every surrogate strategy reproduces byte-identical reports.
func TestSurrogateStrategiesDeterministic(t *testing.T) {
	pf := platform.New()
	prior, _ := gridPrior(t, pf, t.TempDir())
	for _, name := range []string{StrategySurrogateHill, StrategyEI, StrategyScreen} {
		t.Run(name, func(t *testing.T) {
			run := func() []byte {
				res, err := Run(context.Background(), Config{
					Space:    DefaultSpace(true),
					Strategy: name,
					Budget:   8,
					Seed:     42,
					Sim:      quickSim(),
					Platform: pf,
					Priors:   []string{prior},
				})
				if err != nil {
					t.Fatal(err)
				}
				b, err := res.JSON()
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			a, b := run(), run()
			if !bytes.Equal(a, b) {
				t.Fatalf("%s not deterministic:\n--- first ---\n%s\n--- second ---\n%s", name, a, b)
			}
		})
	}
}

// TestSurrogateResumeByteIdentical: a killed surrogate search resumed
// from its journal matches the uninterrupted run byte-for-byte — the
// journal key covers the priors and strategy knobs, so replaying the
// strategy over the same priors reproduces the proposal sequence.
func TestSurrogateResumeByteIdentical(t *testing.T) {
	pf := platform.New()
	dir := t.TempDir()
	prior, _ := gridPrior(t, pf, dir)
	base := Config{
		Space:    DefaultSpace(true),
		Strategy: StrategyScreen,
		Seed:     3,
		Sim:      quickSim(),
		Platform: pf,
		Priors:   []string{prior},
	}
	ref, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(dir, "screen.jsonl")
	part := base
	part.Journal = jpath
	part.Budget = 2 // stand-in for a mid-search kill
	if _, err := Run(context.Background(), part); err != nil {
		t.Fatal(err)
	}
	res := base
	res.Journal = jpath
	res.Resume = true
	got, err := Run(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, gb) {
		t.Fatalf("resumed screen run diverged:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, gb)
	}

	// Resuming with different priors must refuse: the journal promises
	// to reproduce a run that learned from something else.
	other := filepath.Join(dir, "other.jsonl")
	raw, err := os.ReadFile(prior)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if err := os.WriteFile(other, append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	diff := res
	diff.Priors = []string{other}
	if _, err := Run(context.Background(), diff); err == nil || !strings.Contains(err.Error(), "different strategy configuration") {
		t.Fatalf("strategy-key guard: err = %v", err)
	}
}

// TestSurrogateConfigGuards: priors and the screen margin only make
// sense for the strategies that consume them.
func TestSurrogateConfigGuards(t *testing.T) {
	base := Config{Space: DefaultSpace(true), Sim: quickSim()}
	withPrior := base
	withPrior.Strategy = StrategyGrid
	prior, _ := gridPrior(t, platform.New(), t.TempDir())
	withPrior.Priors = []string{prior}
	if _, err := Run(context.Background(), withPrior); err == nil || !strings.Contains(err.Error(), "priors require a surrogate strategy") {
		t.Fatalf("grid+priors: err = %v", err)
	}
	withMargin := base
	withMargin.Strategy = StrategyEI
	withMargin.ScreenMargin = 0.2
	if _, err := Run(context.Background(), withMargin); err == nil || !strings.Contains(err.Error(), "screen margin requires") {
		t.Fatalf("ei+margin: err = %v", err)
	}
	neg := base
	neg.Strategy = StrategyScreen
	neg.ScreenMargin = -0.1
	if _, err := Run(context.Background(), neg); err == nil || !strings.Contains(err.Error(), "non-negative") {
		t.Fatalf("negative margin: err = %v", err)
	}
	missing := base
	missing.Strategy = StrategyScreen
	missing.Priors = []string{filepath.Join(t.TempDir(), "nope.jsonl")}
	if _, err := Run(context.Background(), missing); err == nil || !strings.Contains(err.Error(), "prior journal") {
		t.Fatalf("missing prior: err = %v", err)
	}
}

// TestStrategiesNeverReproposeEvaluated is the dedupe regression test:
// a strategy driven with a history it did not build itself — entries
// seeded by priors, a merged journal, or another strategy — must not
// propose those indexes again.
func TestStrategiesNeverReproposeEvaluated(t *testing.T) {
	s := DefaultSpace(true)
	pre := []int{0, 3, 7, 11, 15}
	hist := make([]HistoryEntry, 0, len(pre))
	for _, i := range pre {
		hist = append(hist, HistoryEntry{
			Index: i,
			Point: s.At(i),
			Eval:  Eval{PerfPerWatt: float64(100 - i)},
		})
	}
	evaluated := make(map[int]bool)
	for _, i := range pre {
		evaluated[i] = true
	}
	for _, name := range []string{StrategyRandom, StrategyHillClimb, StrategySurrogateHill, StrategyEI, StrategyScreen} {
		t.Run(name, func(t *testing.T) {
			st, err := NewStrategy(name, 9)
			if err != nil {
				t.Fatal(err)
			}
			proposed := make(map[int]bool)
			h := append([]HistoryEntry(nil), hist...)
			for rounds := 0; rounds < 2*s.Size(); rounds++ {
				batch := st.Next(s, h, s.Size())
				if len(batch) == 0 {
					break
				}
				for _, i := range batch {
					if evaluated[i] {
						t.Fatalf("%s re-proposed already-evaluated index %d", name, i)
					}
					if proposed[i] {
						t.Fatalf("%s proposed index %d twice in one run", name, i)
					}
					proposed[i] = true
					h = append(h, HistoryEntry{Index: i, Point: s.At(i), Eval: Eval{PerfPerWatt: float64(i)}})
				}
			}
			if len(proposed) == 0 {
				t.Fatalf("%s proposed nothing over a pre-seeded history", name)
			}
		})
	}
}
