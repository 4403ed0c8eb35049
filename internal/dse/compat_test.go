package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cryowire/internal/platform"
	"cryowire/internal/sim"
)

// prestageConfig is the exact search the testdata/dse_prestage_*
// fixtures were generated with, before the stage-temperature axis
// existed: quick space, exhaustive grid, seed 1, quick-experiment sim
// lengths, one worker.
func prestageConfig(journal string) Config {
	return Config{
		Space:    DefaultSpace(true),
		Strategy: StrategyGrid,
		Seed:     1,
		Sim:      sim.Config{WarmupCycles: 1200, MeasureCycles: 5000, Seed: 1},
		Workers:  1,
		Journal:  journal,
		Resume:   true,
	}
}

// TestPreStageJournalCompat is the satellite compatibility gate: a
// journal written before the Space gained its stage-temperature axis
// must still -resume byte-identically — same sha256 fingerprint, every
// evaluation served from the journal without re-simulating, and the
// recovered frontier bit-equal to the pre-change result.
func TestPreStageJournalCompat(t *testing.T) {
	fixture, err := os.ReadFile("../../testdata/dse_prestage_journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	wantResult, err := os.ReadFile("../../testdata/dse_prestage_result.json")
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "dse.jsonl")
	if err := os.WriteFile(jpath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := prestageConfig(jpath)

	// The fingerprint itself must not have moved: the fixture header
	// pins the pre-stage-axis key.
	var header struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(fixture[:bytes.IndexByte(fixture, '\n')], &header); err != nil {
		t.Fatal(err)
	}
	if got := journalKey(cfg.Space, cfg.Sim); got != header.Key {
		t.Fatalf("journal key changed: %s, fixture pinned %s — pre-stage-axis journals can no longer resume", got, header.Key)
	}

	// Any attempt to actually evaluate is a compatibility failure: the
	// journal holds the complete search. Every evaluation starts by
	// deriving its core on the platform, so a fresh platform that
	// records no derivation proves nothing was re-simulated.
	pf := platform.New()
	cfg.Platform = pf
	got, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	gb = append(gb, '\n')
	if !bytes.Equal(gb, wantResult) {
		t.Fatalf("resumed result diverged from the pre-stage fixture:\n--- want ---\n%s\n--- got ---\n%s", wantResult, gb)
	}
	if st := pf.Stats(); st.Misses != 0 {
		t.Errorf("%d platform derivations during a complete pre-stage journal replay: candidates were re-evaluated", st.Misses)
	}

	// A fully-replayed journal must not grow.
	after, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, fixture) {
		t.Fatal("journal bytes changed during a pure replay")
	}
}

// TestStageAxisChangesJournalKey pins the other half of the contract:
// once the stage axis is present the fingerprint must change, so a
// staged search can never silently consume (or corrupt) a flat-system
// journal.
func TestStageAxisChangesJournalKey(t *testing.T) {
	flat := DefaultSpace(true)
	staged := flat.WithStages([]float64{77})
	cfg := sim.Config{WarmupCycles: 1200, MeasureCycles: 5000, Seed: 1}
	if journalKey(flat, cfg) == journalKey(staged, cfg) {
		t.Fatal("stage axis invisible to the journal fingerprint")
	}
	// And the engine enforces it end to end: resuming the pre-stage
	// fixture with a staged space refuses.
	fixture, err := os.ReadFile("../../testdata/dse_prestage_journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "dse.jsonl")
	if err := os.WriteFile(jpath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	c := prestageConfig(jpath)
	c.Space = staged
	if _, err := Run(context.Background(), c); err == nil || !strings.Contains(err.Error(), "different space or simulation config") {
		t.Fatalf("staged space resumed a flat journal: err = %v", err)
	}
}

// TestStageAxisEnumeration checks the sixth axis's mixed-radix
// plumbing: size multiplies, At decodes StageK innermost, coords/index
// round-trip, and neighbors step along the stage axis.
func TestStageAxisEnumeration(t *testing.T) {
	s := DefaultSpace(true).WithStages([]float64{77, 4})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	flat := DefaultSpace(true)
	if s.Size() != 2*flat.Size() {
		t.Fatalf("staged size %d, want %d", s.Size(), 2*flat.Size())
	}
	for i := 0; i < s.Size(); i++ {
		pt := s.At(i)
		wantStage := s.StageTempsK[i%2]
		if pt.StageK != wantStage {
			t.Fatalf("At(%d).StageK = %v, want %v", i, pt.StageK, wantStage)
		}
		// The stage axis is innermost: stripping it recovers the flat
		// space's point.
		fp := flat.At(i / 2)
		fp.StageK = wantStage
		if pt != fp {
			t.Fatalf("At(%d) = %+v, want flat point %+v", i, pt, fp)
		}
		if got := s.index(s.coords(i)); got != i {
			t.Fatalf("coords/index round trip: %d -> %d", i, got)
		}
	}
	// Point 0 and point 1 differ only in stage; they must be mutual
	// neighbors.
	found := false
	for _, n := range s.Neighbors(0) {
		if n == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("stage-axis neighbor missing from the move set")
	}
	// Invalid stage axes refuse.
	for _, bad := range [][]float64{{0}, {-4}, {400}, {77, 77}} {
		if err := DefaultSpace(true).WithStages(bad).Validate(); err == nil {
			t.Errorf("stage axis %v validated", bad)
		}
	}
	if err := NewSpace([]float64{400}, []string{ModeNominal}, []int{14}, []string{NetMesh},
		DefaultSpace(true).Workloads).WithStages([]float64{77}).Validate(); err == nil {
		t.Error("above-ambient tier temperature accepted alongside a stage axis")
	}
}

// TestStagedSearch4K answers the acceptance question end to end at
// test scale: a staged grid over tier ∈ {77 K, 4 K} with 77 K memory
// completes, recovers a frontier, and shows the 4 K tier paying the
// ~25× staged cooling premium.
func TestStagedSearch4K(t *testing.T) {
	s := NewSpace([]float64{77, 4}, []string{ModeCryoSP}, []int{17}, []string{NetCryoBus},
		DefaultSpace(true).Workloads).WithStages([]float64{77})
	res, err := Run(context.Background(), Config{
		Space:    s,
		Strategy: StrategyGrid,
		Seed:     1,
		Sim:      quickSim(),
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 2 || len(res.Frontier) == 0 {
		t.Fatalf("staged search: evaluated %d, frontier %d", res.Evaluated, len(res.Frontier))
	}
	var cold, colder *Candidate
	for i := range res.Frontier {
		c := &res.Frontier[i]
		if c.Point.StageK != 77 {
			t.Fatalf("frontier point %s lost its stage", c.Point)
		}
		switch c.Point.TempK {
		case 77:
			cold = c
		case 4:
			colder = c
		}
	}
	if cold == nil {
		t.Fatal("77 K candidate missing from a 2-point frontier")
	}
	// The 77 K staged lift exceeds the flat one (cables cost heat), and
	// when the 4 K tier survives to the frontier it pays far more.
	if cold.Eval.CoolingOverhead <= 9.65 {
		t.Fatalf("staged 77 K effective overhead %v not above the flat 9.65", cold.Eval.CoolingOverhead)
	}
	if colder != nil {
		if colder.Eval.TotalPower <= 5*cold.Eval.TotalPower {
			t.Fatalf("4 K tier total power %v not dwarfing 77 K's %v", colder.Eval.TotalPower, cold.Eval.TotalPower)
		}
	}
}
