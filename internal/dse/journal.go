package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cryowire/internal/sim"
)

// The checkpoint journal is a JSON-lines file: one header line binding
// the journal to its (space, simulation config) pair, then one line per
// completed evaluation. Because every evaluation is a pure function of
// (point, config), the journal is only a memo — resuming replays the
// seeded strategy from scratch and serves journaled indexes from the
// cache, so a resumed run's output is byte-identical to an
// uninterrupted one. Lines are appended with O_APPEND and synced per
// evaluation, as each completes; a truncated trailing line (killed
// mid-write) is ignored.

// journalHeader is the first line of a journal file.
type journalHeader struct {
	// Kind guards against feeding an unrelated JSONL file to -resume.
	Kind string `json:"kind"`
	// Key fingerprints the (space, sim config) pair the evaluations
	// are valid for.
	Key string `json:"key"`
	// StrategyKey extends Key for surrogate-accelerated searches: it
	// fingerprints the strategy, its seed, its knobs and the prior
	// content the proposal sequence depends on, so a resume with
	// different priors is rejected instead of silently diverging from
	// the run it promises to reproduce byte-for-byte. Empty for the
	// exact strategies (grid/random/hillclimb), which keeps their
	// headers byte-identical to earlier releases.
	StrategyKey string `json:"strategy_key,omitempty"`
}

// journalLine is one completed evaluation — the exported JournalEntry
// (merge.go), aliased so the engine's appends and the entries readers
// parse back are one type by construction.
type journalLine = JournalEntry

const journalKind = "cryowire-dse-journal"

// journalKey fingerprints everything an Eval depends on: the full axis
// lists (index meaning) and the simulation lengths/seed. A journal
// recorded under a different key is rejected rather than silently
// replaying stale numbers.
func journalKey(s Space, cfg sim.Config) string {
	canon := fmt.Sprintf("%s||warmup=%d|measure=%d|seed=%d|cores=%d",
		s.canonical(), cfg.WarmupCycles, cfg.MeasureCycles, cfg.Seed, evalCores)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}

// checkEntryIndex rejects a journal entry whose point index lies
// outside a space of the given size: no search of that space can have
// recorded it, and downstream consumers (replay, merges, the surrogate
// fit) index the space with it.
func checkEntryIndex(i, size int) error {
	if i < 0 || i >= size {
		return fmt.Errorf("dse: journal entry index %d outside the space [0, %d)", i, size)
	}
	return nil
}

// journal is an append-only evaluation log with its in-memory cache.
type journal struct {
	f     *os.File
	size  int // the space's point count, for validating replayed lines
	cache map[int]Eval
}

// openJournal opens (creating if needed) the journal at path for the
// given search, loading any prior evaluations recorded under the same
// key. stratKey is the strategy fingerprint to record and require
// (empty for the exact strategies — see journalHeader.StrategyKey).
// With resume=false an existing non-empty journal is an error —
// silently appending a fresh run onto an old one would corrupt both.
func openJournal(path string, s Space, cfg sim.Config, resume bool, stratKey string) (*journal, error) {
	key := journalKey(s, cfg)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dse: open journal: %w", err)
	}
	j := &journal{f: f, size: s.Size(), cache: make(map[int]Eval)}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dse: stat journal: %w", err)
	}
	if st.Size() == 0 {
		// Fresh journal: write the header.
		hdr, err := json.Marshal(journalHeader{Kind: journalKind, Key: key, StrategyKey: stratKey})
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, fmt.Errorf("dse: write journal header: %w", err)
		}
		return j, nil
	}
	if !resume {
		f.Close()
		return nil, fmt.Errorf("dse: journal %s already exists; pass -resume to continue it or remove it to start over", path)
	}
	if err := j.load(key, stratKey); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// load reads the existing journal, checks the header key, and fills
// the cache. A torn final line — the run was killed between a write
// and its sync, so a suffix of the file never reached disk — is
// truncated away, not merely skipped: the next append must start on a
// clean line boundary or it would glue a fresh record onto the torn
// bytes and corrupt an interior line for every later resume. Malformed
// newline-terminated lines were fully written, so they are genuine
// corruption and remain errors.
func (j *journal) load(key, stratKey string) error {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("dse: rewind journal: %w", err)
	}
	data, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("dse: read journal: %w", err)
	}
	lines, torn := splitJournal(data)
	if len(lines) == 0 {
		// Even the header never hit a line boundary: the kill landed
		// inside the very first write. Nothing is recoverable; restart
		// the journal from scratch.
		return j.restart(key, stratKey, 0)
	}
	var hdr journalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return fmt.Errorf("dse: journal header: %w", err)
	}
	if hdr.Kind != journalKind {
		return fmt.Errorf("dse: not a dse journal (kind %q)", hdr.Kind)
	}
	if hdr.Key != key {
		return fmt.Errorf("dse: journal was recorded for a different space or simulation config; remove it to start over")
	}
	if hdr.StrategyKey != stratKey {
		return fmt.Errorf("dse: journal was recorded for a different strategy configuration (strategy, seed, priors or screen margin changed); remove it to start over")
	}
	for _, line := range lines[1:] {
		if err := j.addLine(line); err != nil {
			return err
		}
	}
	if torn >= 0 {
		// Drop the torn tail so appends resume on a line boundary. The
		// truncated evaluation just re-runs.
		if err := j.f.Truncate(int64(torn)); err != nil {
			return fmt.Errorf("dse: truncate torn journal tail: %w", err)
		}
	}
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("dse: seek journal: %w", err)
	}
	return nil
}

// splitJournal cuts the journal bytes into complete (newline-
// terminated) lines, skipping blank ones, and reports the byte offset
// of a torn unterminated tail (-1 when the file ends cleanly).
func splitJournal(data []byte) (lines [][]byte, torn int) {
	start := 0
	for start < len(data) {
		nl := bytes.IndexByte(data[start:], '\n')
		if nl < 0 {
			return lines, start
		}
		line := bytes.TrimSpace(data[start : start+nl])
		if len(line) > 0 {
			lines = append(lines, line)
		}
		start += nl + 1
	}
	return lines, -1
}

// restart wipes the journal back to a fresh header — the recovery path
// for a file whose header itself was torn mid-write.
func (j *journal) restart(key, stratKey string, size int64) error {
	if err := j.f.Truncate(size); err != nil {
		return fmt.Errorf("dse: truncate torn journal: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("dse: seek journal: %w", err)
	}
	hdr, err := json.Marshal(journalHeader{Kind: journalKind, Key: key, StrategyKey: stratKey})
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(hdr, '\n')); err != nil {
		return fmt.Errorf("dse: write journal header: %w", err)
	}
	return j.f.Sync()
}

func (j *journal) addLine(line []byte) error {
	var l journalLine
	if err := json.Unmarshal(line, &l); err != nil {
		return fmt.Errorf("dse: corrupt journal line: %w", err)
	}
	if err := checkEntryIndex(l.Index, j.size); err != nil {
		return err
	}
	j.cache[l.Index] = l.Eval
	return nil
}

// lookup returns the journaled evaluation for a point index, if any.
func (j *journal) lookup(i int) (Eval, bool) {
	if j == nil {
		return Eval{}, false
	}
	e, ok := j.cache[i]
	return e, ok
}

// record appends one completed evaluation and syncs it to disk so a
// kill after record never loses the work.
func (j *journal) record(i int, e Eval) error {
	if j == nil {
		return nil
	}
	j.cache[i] = e
	b, err := json.Marshal(journalLine{Index: i, Eval: e})
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("dse: append journal: %w", err)
	}
	return j.f.Sync()
}

// close releases the journal file.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}
