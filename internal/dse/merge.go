package dse

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"cryowire/internal/sim"
)

// This file is the journal's exported face: ParseJournal behind the
// surrogate strategies' -prior journals, and for bench/ the
// ReadJournal replay check, MergeFrontiers and the JournalWriter
// append handle for evaluations recorded outside the engine. The
// load-bearing fact is that the journal key binds only (space, sim
// config) — never a budget, strategy or schedule — so every search of
// one space records under one key, and entry sets from different
// journals of it merge.

// JournalEntry is one completed evaluation as recorded on a journal
// line: the point's stable index in the space and its measured
// outcome.
type JournalEntry struct {
	Index int  `json:"index"`
	Eval  Eval `json:"eval"`
}

// ParseJournal parses raw journal bytes recorded for (s, cfg) and
// returns the entries sorted by index. Empty input is an empty
// journal; a torn unterminated tail is dropped exactly as resume does
// (readers may race an appender — the tail shows up whole on the next
// read); a journal recorded under a different key, or an entry whose
// index lies outside the space, is an error. Equal duplicate entries
// collapse silently, conflicting ones are an error.
func ParseJournal(data []byte, s Space, cfg sim.Config) ([]JournalEntry, error) {
	lines, _ := splitJournal(data)
	if len(lines) == 0 {
		return nil, nil
	}
	var hdr journalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, fmt.Errorf("dse: journal header: %w", err)
	}
	if hdr.Kind != journalKind {
		return nil, fmt.Errorf("dse: not a dse journal (kind %q)", hdr.Kind)
	}
	if hdr.Key != journalKey(s, cfg) {
		return nil, fmt.Errorf("dse: journal was recorded for a different space or simulation config; remove it to start over")
	}
	size := s.Size()
	entries := make([]JournalEntry, 0, len(lines)-1)
	for _, line := range lines[1:] {
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("dse: corrupt journal line: %w", err)
		}
		if err := checkEntryIndex(e.Index, size); err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return MergeEntries(entries)
}

// ReadJournal reads and parses the journal file at path; a missing
// file is an empty journal, because to every reader "no journal yet"
// and "journal with nothing in it" must mean the same thing.
// Kept for bench/dsefull.go, which checks its journal through it.
func ReadJournal(path string, s Space, cfg sim.Config) ([]JournalEntry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dse: read journal: %w", err)
	}
	return ParseJournal(data, s, cfg)
}

// MergeEntries unions entry sets keyed by point index, sorted by
// index. The merge is commutative, associative and idempotent — order
// and repetition of inputs never matter — because an entry's index
// fully determines its eval: evaluation is a pure function of (point,
// sim config), and every input set was key-checked against the same
// pair. Two entries that share an index but disagree therefore came
// from different searches, and that is an error, never a silent pick.
func MergeEntries(sets ...[]JournalEntry) ([]JournalEntry, error) {
	merged := make(map[int]Eval)
	for _, set := range sets {
		for _, e := range set {
			if prev, ok := merged[e.Index]; ok {
				if prev != e.Eval {
					return nil, fmt.Errorf("dse: journal merge conflict at index %d: evaluations disagree, the journals belong to different searches", e.Index)
				}
				continue
			}
			merged[e.Index] = e.Eval
		}
	}
	out := make([]JournalEntry, 0, len(merged))
	for i, e := range merged {
		out = append(out, JournalEntry{Index: i, Eval: e})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out, nil
}

// JournalWriter is an exported append handle on a checkpoint journal,
// for evaluations obtained outside the engine. Opening
// creates-or-resumes: a missing or empty file gets a
// fresh header, an existing one is loaded under the same key checks as
// -resume (torn tail truncated). Appends sync per record, matching the
// engine's own crash guarantee.
type JournalWriter struct {
	j *journal
}

// OpenJournalWriter opens the journal at path for (s, cfg).
// Kept for tests: bench/definition_test.go records journal entries through it.
func OpenJournalWriter(path string, s Space, cfg sim.Config) (*JournalWriter, error) {
	j, err := openJournal(path, s, cfg, true, "")
	if err != nil {
		return nil, err
	}
	return &JournalWriter{j: j}, nil
}

// Record appends one entry, or does nothing if its index is already
// journaled — mirroring the same bytes twice must be harmless.
// Kept for tests: bench/definition_test.go records journal entries through it.
func (w *JournalWriter) Record(e JournalEntry) error {
	if _, ok := w.j.lookup(e.Index); ok {
		return nil
	}
	return w.j.record([]journalLine{e})
}

// Close releases the journal file.
func (w *JournalWriter) Close() error { return w.j.close() }

// MergeFrontiers merges Pareto frontiers into the frontier of their
// union under the objectives (nil means DefaultObjectives). A point
// non-dominated in the union is non-dominated within any subset
// containing it, so frontier(A ∪ B) == frontier(frontier(A) ∪
// frontier(B)) — which lets a reader grow a frontier one entry at a
// time. Like MergeEntries it is commutative, associative and
// idempotent: candidates dedup by point index and re-filter in index
// order, so input order can never change the merged frontier.
// Kept for bench/dsefull.go, which grows its frontier through it.
func MergeFrontiers(objs []Objective, fronts ...[]Candidate) []Candidate {
	if len(objs) == 0 {
		objs = DefaultObjectives()
	}
	seen := make(map[int]bool)
	var all []Candidate
	for _, f := range fronts {
		for _, c := range f {
			if !seen[c.Index] {
				seen[c.Index] = true
				all = append(all, c)
			}
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Index < all[b].Index })
	return paretoFrontier(all, objs)
}
