package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cryowire/internal/dse"
	"cryowire/internal/experiments"
	"cryowire/internal/sim"
)

// BENCHMARK.json at the repository root names the same workloads and
// metric rows, in the same order, as the tables this program measures.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	if err := checkDefinition(filepath.Join("..", definitionFile)); err != nil {
		t.Fatal(err)
	}
}

// A definition that drifts from the tables is refused.
func TestCheckDefinitionRefusesDrift(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", definitionFile))
	if err != nil {
		t.Fatal(err)
	}
	drifted := filepath.Join(t.TempDir(), definitionFile)
	if err := os.WriteFile(drifted, bytes.Replace(b, []byte(`"op_tail_ms"`), []byte(`"op_p99_ms"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkDefinition(drifted); err == nil {
		t.Error("a renamed end-to-end metric was accepted")
	}
}

func TestReadGoldenFindsPinnedExperiments(t *testing.T) {
	golden, err := readGolden(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig3", "fig10", "fig17", "fig21", "fig23"} {
		var rep experiments.Report
		if err := json.Unmarshal(golden[id], &rep); err != nil || rep.ID != id {
			t.Errorf("%s: section does not parse as its report (id %q): %v", id, rep.ID, err)
		}
	}
	if _, ok := golden["dse-grid"]; ok {
		t.Error("the DSE section is not an experiment report")
	}
}

// The bake-off replays journals in append order, not index order.
func TestSimsToFrontierReplaysAppendOrder(t *testing.T) {
	space := dse.DefaultSpace(true)
	cfg := sim.Config{WarmupCycles: 1, MeasureCycles: 1, Seed: 1}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := dse.OpenJournalWriter(path, space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	evals := []dse.JournalEntry{
		{Index: 5, Eval: dse.Eval{Performance: 1, TotalPower: 1, Energy: 1}},
		{Index: 2, Eval: dse.Eval{Performance: 2, TotalPower: 2, Energy: 1}},
		{Index: 9, Eval: dse.Eval{Performance: 0.5, TotalPower: 3, Energy: 6}}, // dominated by 5
		{Index: 1, Eval: dse.Eval{Performance: 3, TotalPower: 3, Energy: 1}},
	}
	for _, e := range evals {
		if err := w.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := journalInOrder(path, space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got {
		if e.Index != evals[i].Index {
			t.Fatalf("entry %d is index %d, want %d (append order)", i, e.Index, evals[i].Index)
		}
	}
	front := func(idx ...int) []dse.Candidate {
		var out []dse.Candidate
		for _, i := range idx {
			out = append(out, dse.Candidate{Index: i})
		}
		return out
	}
	if n, ok, err := simsToFrontier(path, space, cfg, front(2, 5)); err != nil || !ok || n != 2 {
		t.Errorf("frontier {2,5}: reached after %d (ok %v, err %v), want 2", n, ok, err)
	}
	if n, ok, _ := simsToFrontier(path, space, cfg, front(7)); ok || n != len(evals) {
		t.Errorf("unreachable frontier: %d, %v; want %d, false", n, ok, len(evals))
	}
}
