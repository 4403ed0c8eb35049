// Package jobs is the durable, crash-safe asynchronous job subsystem:
// it runs design-space explorations submitted over HTTP (or any other
// front end) to completion across process crashes, restarts and client
// disconnects.
//
// A job is a directory under the store root:
//
//	<root>/<id>/spec.json     — the search parameters (immutable)
//	<root>/<id>/state.json    — status + progress metadata
//	<root>/<id>/journal.jsonl — the dse checkpoint journal (one synced
//	                            line per completed evaluation)
//	<root>/<id>/result.json   — the final frontier (terminal jobs only)
//
// Crash-safety rests on three rules. (1) Every metadata write is
// atomic: temp file in the same directory, fsync, rename, fsync the
// directory — readers see old-complete or new-complete bytes, never a
// prefix. (2) The evaluation ground truth is the dse journal, which is
// appended and fsynced per evaluation and whose loader truncates a
// torn final line; state.json is only an index over it. (3) Job
// directories are staged under a ".tmp-" name and renamed into place,
// so a crash mid-create leaves sweepable garbage, never a half-job.
// Recovery is therefore a scan: any job found pending, running or
// interrupted is re-enqueued, and the journal replay makes the resumed
// run byte-identical to an uninterrupted one.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Status is a job's lifecycle phase.
type Status string

const (
	// StatusPending: durably created, not yet claimed by a runner.
	StatusPending Status = "pending"
	// StatusRunning: claimed by a live runner in this or a previous
	// process. Found on disk at startup it means the previous process
	// crashed mid-run; recovery turns it into StatusInterrupted.
	StatusRunning Status = "running"
	// StatusInterrupted: stopped before completion by a drain or crash;
	// the journal checkpoint makes it resumable.
	StatusInterrupted Status = "interrupted"
	// StatusDone: completed; result.json holds the frontier.
	StatusDone Status = "done"
	// StatusFailed: the search surfaced an error (recorded in
	// State.Error).
	StatusFailed Status = "failed"
	// StatusCanceled: a client canceled the job.
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final — terminal jobs are
// never resumed.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// State is the mutable metadata of one job, persisted atomically as
// state.json. It is an index over the journal, not the ground truth:
// Evaluated may lag the journal after a crash, and recovery heals it
// by re-running the search over the journal's memo.
type State struct {
	ID      string    `json:"id"`
	Status  Status    `json:"status"`
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
	// Evaluated / Total is the search progress. Total is the budget
	// clipped to the space; adaptive strategies may finish below it.
	Evaluated int `json:"evaluated"`
	Total     int `json:"total"`
	// Error carries the failure message for StatusFailed.
	Error string `json:"error,omitempty"`
}

// Job pairs a spec with its current state.
type Job struct {
	Spec  Spec  `json:"spec"`
	State State `json:"state"`
}

// File names inside a job directory.
const (
	specFile    = "spec.json"
	stateFile   = "state.json"
	journalFile = "journal.jsonl"
	resultFile  = "result.json"
)

// Store is the directory-per-job persistence layer. All methods are
// safe for concurrent use by the manager's goroutines because every
// mutation is a whole-file atomic replace.
type Store struct {
	root string
	fs   fsOps
	now  func() time.Time
}

// OpenStore opens (creating if needed) a job store rooted at dir and
// sweeps debris from interrupted creations.
func OpenStore(dir string) (*Store, error) {
	s := &Store{root: dir, fs: realFS(), now: func() time.Time { return time.Now().UTC() }}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create store root: %w", err)
	}
	if err := s.sweep(); err != nil {
		return nil, err
	}
	return s, nil
}

// sweep removes staged directories and temp files left by a crash
// mid-write. Their final rename never happened, so nothing references
// them.
func (s *Store) sweep() error {
	ents, err := os.ReadDir(s.root)
	if err != nil {
		return fmt.Errorf("jobs: scan store: %w", err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			if err := s.fs.RemoveAll(filepath.Join(s.root, e.Name())); err != nil {
				return fmt.Errorf("jobs: sweep %s: %w", e.Name(), err)
			}
			continue
		}
		if !e.IsDir() {
			continue
		}
		sub, err := os.ReadDir(filepath.Join(s.root, e.Name()))
		if err != nil {
			continue // handled (reported) by List
		}
		for _, f := range sub {
			if strings.HasPrefix(f.Name(), tmpPrefix) {
				s.fs.Remove(filepath.Join(s.root, e.Name(), f.Name()))
			}
		}
	}
	return nil
}

// newID returns a fresh 16-hex-char job id.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: id entropy: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// validID guards path construction against ids that did not come from
// newID (HTTP handlers pass client-controlled strings here).
func validID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// dir returns the job's directory path.
func (s *Store) dir(id string) string { return filepath.Join(s.root, id) }

// JournalPath returns the job's dse checkpoint journal path.
func (s *Store) JournalPath(id string) string { return filepath.Join(s.dir(id), journalFile) }

// LoadJournal returns the job's raw checkpoint journal bytes; a job
// that has not checkpointed yet yields an empty journal, not an error.
func (s *Store) LoadJournal(id string) ([]byte, error) {
	if !validID(id) {
		return nil, fmt.Errorf("jobs: invalid job id %q", id)
	}
	b, err := os.ReadFile(s.JournalPath(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: read journal: %w", err)
	}
	return b, nil
}

// Create durably persists a new pending job: the spec and initial
// state are written into a staged ".tmp-" directory which is then
// renamed into place and the root fsynced — the job either exists
// completely or not at all.
func (s *Store) Create(sp Spec) (Job, error) {
	id, err := newID()
	if err != nil {
		return Job{}, err
	}
	now := s.now()
	st := State{ID: id, Status: StatusPending, Created: now, Updated: now, Total: sp.Total()}
	staged := filepath.Join(s.root, tmpPrefix+id)
	if err := s.fs.MkdirAll(staged, 0o755); err != nil {
		return Job{}, fmt.Errorf("jobs: stage job dir: %w", err)
	}
	cleanup := func(err error) (Job, error) {
		s.fs.RemoveAll(staged)
		return Job{}, err
	}
	specBytes, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return cleanup(err)
	}
	if err := s.atomicWrite(staged, specFile, append(specBytes, '\n')); err != nil {
		return cleanup(err)
	}
	stateBytes, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return cleanup(err)
	}
	if err := s.atomicWrite(staged, stateFile, append(stateBytes, '\n')); err != nil {
		return cleanup(err)
	}
	if err := s.fs.Rename(staged, s.dir(id)); err != nil {
		return cleanup(fmt.Errorf("jobs: publish job dir: %w", err))
	}
	if err := s.syncPath(s.root); err != nil {
		return Job{}, fmt.Errorf("jobs: sync store root: %w", err)
	}
	return Job{Spec: sp, State: st}, nil
}

// SaveState atomically replaces a job's state.json, stamping Updated.
func (s *Store) SaveState(st State) (State, error) {
	if !validID(st.ID) {
		return State{}, fmt.Errorf("jobs: invalid job id %q", st.ID)
	}
	st.Updated = s.now()
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return State{}, err
	}
	if err := s.atomicWrite(s.dir(st.ID), stateFile, append(b, '\n')); err != nil {
		return State{}, err
	}
	return st, nil
}

// Load reads one job from disk.
func (s *Store) Load(id string) (Job, error) {
	if !validID(id) {
		return Job{}, fmt.Errorf("jobs: invalid job id %q", id)
	}
	var j Job
	if err := readJSON(filepath.Join(s.dir(id), specFile), &j.Spec); err != nil {
		return Job{}, err
	}
	if err := readJSON(filepath.Join(s.dir(id), stateFile), &j.State); err != nil {
		return Job{}, err
	}
	return j, nil
}

// DamagedJob names a job directory List could not load, and why.
type DamagedJob struct {
	ID  string
	Err error
}

// List scans the store and returns every readable job sorted by
// creation time (ties broken by id). Unreadable job directories are
// returned as damaged rather than failing the whole scan — one
// corrupt job must not take recovery down with it.
func (s *Store) List() (jobs []Job, damaged []DamagedJob, err error) {
	ents, err := os.ReadDir(s.root)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: scan store: %w", err)
	}
	for _, e := range ents {
		if !e.IsDir() || strings.HasPrefix(e.Name(), tmpPrefix) {
			continue
		}
		j, err := s.Load(e.Name())
		if err != nil {
			damaged = append(damaged, DamagedJob{ID: e.Name(), Err: err})
			continue
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool {
		if !jobs[a].State.Created.Equal(jobs[b].State.Created) {
			return jobs[a].State.Created.Before(jobs[b].State.Created)
		}
		return jobs[a].State.ID < jobs[b].State.ID
	})
	return jobs, damaged, nil
}

// SaveResult atomically persists the final result document.
func (s *Store) SaveResult(id string, body []byte) error {
	if !validID(id) {
		return fmt.Errorf("jobs: invalid job id %q", id)
	}
	return s.atomicWrite(s.dir(id), resultFile, body)
}

// LoadResult returns the result document of a finished job.
func (s *Store) LoadResult(id string) ([]byte, error) {
	if !validID(id) {
		return nil, fmt.Errorf("jobs: invalid job id %q", id)
	}
	return os.ReadFile(filepath.Join(s.dir(id), resultFile))
}

// Delete removes a job directory entirely.
func (s *Store) Delete(id string) error {
	if !validID(id) {
		return fmt.Errorf("jobs: invalid job id %q", id)
	}
	if err := s.fs.RemoveAll(s.dir(id)); err != nil {
		return fmt.Errorf("jobs: delete %s: %w", id, err)
	}
	return s.syncPath(s.root)
}

// readJSON decodes one whole JSON file. Unknown keys are ignored;
// Spec's decoder rejects the retired ones that would change a search.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("jobs: read %s: %w", filepath.Base(path), err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("jobs: parse %s: %w", filepath.Base(path), err)
	}
	return nil
}
