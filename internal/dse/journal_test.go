package dse

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResumeRejectsOutOfRangeIndex: a resumed journal holding an entry
// outside the space is refused, on the resume path and in
// ParseJournal alike, instead of being replayed.
func TestResumeRejectsOutOfRangeIndex(t *testing.T) {
	fixture, err := os.ReadFile("../../testdata/dse_prestage_journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	size := prestageConfig("").Space.Size()
	for _, idx := range []int{-1, size} {
		bad := append(append([]byte{}, fixture...), fmt.Sprintf("{\"index\":%d,\"eval\":{}}\n", idx)...)
		jpath := filepath.Join(t.TempDir(), "dse.jsonl")
		if err := os.WriteFile(jpath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := prestageConfig(jpath)
		if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "outside the space") {
			t.Errorf("index %d: resume err = %v, want an out-of-range rejection", idx, err)
		}
		if _, err := ParseJournal(bad, cfg.Space, cfg.Sim); err == nil || !strings.Contains(err.Error(), "outside the space") {
			t.Errorf("index %d: ParseJournal err = %v, want an out-of-range rejection", idx, err)
		}
	}
}

// FuzzParseJournal feeds arbitrary bytes to ParseJournal — the parser
// behind -prior files — under the pre-stage fixture's space and sim
// config. Whatever it accepts must be usable as-is: every entry's index
// inside the space, no index twice, indexes ascending. Rejection is
// always allowed; a panic never is.
func FuzzParseJournal(f *testing.F) {
	fixture, err := os.ReadFile("../../testdata/dse_prestage_journal.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	cfg := prestageConfig("")
	header := fixture[:bytes.IndexByte(fixture, '\n')+1]
	f.Add(fixture)
	f.Add(header)
	f.Add(fixture[:len(fixture)/2])
	size := cfg.Space.Size()
	for _, idx := range []int{-1, size, size + 1, 1 << 40} {
		f.Add(append(append([]byte{}, header...), fmt.Sprintf("{\"index\":%d,\"eval\":{}}\n", idx)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ParseJournal(data, cfg.Space, cfg.Sim)
		if err != nil {
			return
		}
		for k, e := range entries {
			if e.Index < 0 || e.Index >= size {
				t.Fatalf("accepted entry %d with index %d outside [0, %d)", k, e.Index, size)
			}
			if k > 0 && e.Index <= entries[k-1].Index {
				t.Fatalf("entries not unique and ascending: index %d after %d", e.Index, entries[k-1].Index)
			}
		}
	})
}

// TestJournalBytesIndependentOfCheckpoint: a checkpoint appends its
// batch with one write, and the journal holds the same bytes whether
// each evaluation is its own checkpoint or batches of several are.
// Progress still sees every evaluation, in order.
func TestJournalBytesIndependentOfCheckpoint(t *testing.T) {
	const budget = 8
	var want []byte
	for _, every := range []int{1, 3, 0} {
		jpath := filepath.Join(t.TempDir(), "dse.jsonl")
		var seen []int
		cfg := Config{
			Space:           DefaultSpace(true),
			Strategy:        StrategyGrid,
			Budget:          budget,
			Sim:             quickSim(),
			Workers:         2,
			CheckpointEvery: every,
			Journal:         jpath,
			Progress:        func(evaluated, _ int) { seen = append(seen, evaluated) },
		}
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(got, []byte("\n")); n != 1+budget {
			t.Fatalf("checkpoint every %d: journal has %d lines, want %d", every, n, 1+budget)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("checkpoint every %d: journal differs from one checkpoint per evaluation:\n%s\nwant\n%s", every, got, want)
		}
		if fmt.Sprint(seen) != "[1 2 3 4 5 6 7 8]" {
			t.Errorf("checkpoint every %d: Progress saw %v, want 1..%d in order", every, seen, budget)
		}
	}
}
