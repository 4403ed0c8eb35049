package dse

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cryowire/internal/platform"
	"cryowire/internal/sim"
)

// mergeSim keeps the merge-law runs cheap; byte-identity only needs
// determinism, not converged measurements.
func mergeSim() sim.Config {
	return sim.Config{WarmupCycles: 200, MeasureCycles: 800, Seed: 1}
}

// runHalves evaluates the quick space once, journaled, and splits the
// journal's entries into two disjoint index halves.
func runHalves(t *testing.T) (space Space, scfg sim.Config, single *Result, singleJournal []byte, a, b []JournalEntry) {
	t.Helper()
	space = DefaultSpace(true)
	scfg = mergeSim()
	path := filepath.Join(t.TempDir(), "single.jsonl")
	single, err := Run(context.Background(), Config{
		Space: space, Strategy: StrategyGrid, Sim: scfg, Platform: platform.New(), Journal: path,
	})
	if err != nil {
		t.Fatalf("single run: %v", err)
	}
	singleJournal, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(path, space, scfg)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	half := len(entries) / 2
	return space, scfg, single, singleJournal, entries[:half], entries[half:]
}

// TestJournalMergeLaws proves the entry merge is commutative,
// associative and idempotent, and that recording the merged halves in
// index order through a JournalWriter yields bytes identical to the
// single-run journal.
func TestJournalMergeLaws(t *testing.T) {
	space, scfg, _, singleJournal, a, b := runHalves(t)

	ab, err := MergeEntries(a, b)
	if err != nil {
		t.Fatalf("merge(a,b): %v", err)
	}
	ba, err := MergeEntries(b, a)
	if err != nil {
		t.Fatalf("merge(b,a): %v", err)
	}
	if !reflect.DeepEqual(ab, ba) {
		t.Fatal("merge is not commutative: merge(a,b) != merge(b,a)")
	}
	aa, err := MergeEntries(a, a)
	if err != nil {
		t.Fatalf("merge(a,a): %v", err)
	}
	if !reflect.DeepEqual(aa, a) {
		t.Fatal("merge is not idempotent: merge(a,a) != a")
	}
	abab, err := MergeEntries(ab, a, b, ab)
	if err != nil {
		t.Fatalf("merge(ab,a,b,ab): %v", err)
	}
	if !reflect.DeepEqual(abab, ab) {
		t.Fatal("merge is not associative/idempotent over repeated inputs")
	}

	mergedPath := filepath.Join(t.TempDir(), "merged.jsonl")
	w, err := OpenJournalWriter(mergedPath, space, scfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ab {
		if err := w.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mergedBytes, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedBytes, singleJournal) {
		t.Fatalf("merged journal differs from single-run journal:\nmerged:\n%s\nsingle:\n%s", mergedBytes, singleJournal)
	}

	// A conflicting duplicate is a different search, never a silent pick.
	bad := append([]JournalEntry(nil), a...)
	bad[0].Eval.Performance++
	if _, err := MergeEntries(a, bad); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("conflicting merge error = %v, want conflict", err)
	}
}

// TestFrontierMergeLaws proves frontier(A ∪ B) ==
// frontier(frontier(A) ∪ frontier(B)) plus commutativity and
// idempotence, against the single-run frontier byte-for-byte.
func TestFrontierMergeLaws(t *testing.T) {
	space, _, single, _, a, b := runHalves(t)

	cands := func(entries []JournalEntry) []Candidate {
		out := make([]Candidate, len(entries))
		for i, e := range entries {
			out[i] = Candidate{Index: e.Index, Point: space.At(e.Index), Eval: e.Eval}
		}
		return out
	}
	// MergeFrontiers of one set is that set's frontier.
	fa := MergeFrontiers(nil, cands(a))
	fb := MergeFrontiers(nil, cands(b))

	fab := MergeFrontiers(nil, fa, fb)
	fba := MergeFrontiers(nil, fb, fa)
	if !reflect.DeepEqual(fab, fba) {
		t.Fatal("frontier merge is not commutative")
	}
	if faa := MergeFrontiers(nil, fa, fa); !reflect.DeepEqual(faa, fa) {
		t.Fatal("frontier merge is not idempotent")
	}
	if !reflect.DeepEqual(fab, single.Frontier) {
		t.Fatal("merged half frontiers differ from the single-run frontier")
	}
	got, err := (&Result{Frontier: fab}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Result{Frontier: single.Frontier}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged frontier JSON differs byte-for-byte from the single-run frontier")
	}
}
