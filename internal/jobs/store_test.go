package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var errInjected = errors.New("injected fault")

// faultFS wraps the real syscall set with per-op kill switches; tests
// flip a flag, run one store operation, and assert the failure was
// absorbed without corrupting on-disk state. Tests are single-
// goroutine, so plain fields suffice.
type faultFS struct {
	failWrite, failSync, failRename, failMkdir, failRemoveAll bool
}

// arm installs the fault hooks on a store.
func (f *faultFS) arm(s *Store) {
	real := realFS()
	s.fs.WriteFile = func(name string, data []byte) error {
		if f.failWrite {
			return errInjected
		}
		return real.WriteFile(name, data)
	}
	s.fs.Sync = func(file *os.File) error {
		if f.failSync {
			return errInjected
		}
		return real.Sync(file)
	}
	s.fs.Rename = func(o, n string) error {
		if f.failRename {
			return errInjected
		}
		return real.Rename(o, n)
	}
	s.fs.MkdirAll = func(p string, perm os.FileMode) error {
		if f.failMkdir {
			return errInjected
		}
		return real.MkdirAll(p, perm)
	}
	s.fs.RemoveAll = func(p string) error {
		if f.failRemoveAll {
			return errInjected
		}
		return real.RemoveAll(p)
	}
}

func testSpec(budget int) Spec {
	return Spec{
		Strategy:      "grid",
		Budget:        budget,
		Seed:          1,
		TempsK:        []float64{300, 77},
		Modes:         []string{"nominal", "cryosp"},
		Depths:        []int{14, 17},
		Nets:          []string{"mesh", "cryobus"},
		Workloads:     []string{"x264"},
		WarmupCycles:  300,
		MeasureCycles: 900,
		SimSeed:       1,
		Workers:       2,
	}
}

func openTestStore(t *testing.T) (*Store, *faultFS) {
	t.Helper()
	s, err := OpenStore(filepath.Join(t.TempDir(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	f := &faultFS{}
	f.arm(s)
	return s, f
}

// TestStoreRoundTrip: create, load, list, state update, result, delete.
func TestStoreRoundTrip(t *testing.T) {
	s, _ := openTestStore(t)
	job, err := s.Create(testSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if job.State.Status != StatusPending || job.State.Total != 4 {
		t.Fatalf("fresh state = %+v", job.State)
	}
	got, err := s.Load(job.State.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Strategy != "grid" || got.State.ID != job.State.ID {
		t.Fatalf("loaded %+v", got)
	}
	got.State.Status = StatusDone
	got.State.Evaluated = 4
	st, err := s.SaveState(got.State)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Updated.After(job.State.Updated) && !st.Updated.Equal(job.State.Updated) {
		t.Fatalf("Updated not stamped: %v vs %v", st.Updated, job.State.Updated)
	}
	if err := s.SaveResult(job.State.ID, []byte("{\"ok\":true}\n")); err != nil {
		t.Fatal(err)
	}
	body, err := s.LoadResult(job.State.ID)
	if err != nil || string(body) != "{\"ok\":true}\n" {
		t.Fatalf("result = %q, %v", body, err)
	}
	jobs, damaged, err := s.List()
	if err != nil || len(damaged) != 0 || len(jobs) != 1 {
		t.Fatalf("List = %v, %v, %v", jobs, damaged, err)
	}
	if err := s.Delete(job.State.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(job.State.ID); err == nil {
		t.Fatal("deleted job still loads")
	}
}

// TestCreateFaults: every failing persistence step during Create must
// leave the store without a half-created job — the staged directory is
// cleaned up and List sees nothing.
func TestCreateFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*faultFS)
	}{
		{"write fails", func(f *faultFS) { f.failWrite = true }},
		{"fsync fails", func(f *faultFS) { f.failSync = true }},
		{"rename fails", func(f *faultFS) { f.failRename = true }},
		{"mkdir fails", func(f *faultFS) { f.failMkdir = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, f := openTestStore(t)
			tc.set(f)
			if _, err := s.Create(testSpec(2)); !errors.Is(err, errInjected) {
				t.Fatalf("Create error = %v, want injected fault", err)
			}
			*f = faultFS{}
			jobs, damaged, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != 0 || len(damaged) != 0 {
				t.Fatalf("half-created job visible: jobs=%v damaged=%v", jobs, damaged)
			}
			ents, err := os.ReadDir(s.root)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if !strings.HasPrefix(e.Name(), tmpPrefix) {
					t.Fatalf("unexpected store entry %q after failed create", e.Name())
				}
			}
		})
	}
}

// TestSaveStateFaults: a failing write, sync or rename during a state
// update must leave the previous state.json byte-intact — the atomic
// replace either happens completely or not at all.
func TestSaveStateFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*faultFS)
	}{
		{"write fails", func(f *faultFS) { f.failWrite = true }},
		{"fsync fails", func(f *faultFS) { f.failSync = true }},
		{"rename fails", func(f *faultFS) { f.failRename = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, f := openTestStore(t)
			job, err := s.Create(testSpec(2))
			if err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(filepath.Join(s.dir(job.State.ID), stateFile))
			if err != nil {
				t.Fatal(err)
			}
			tc.set(f)
			job.State.Status = StatusRunning
			if _, err := s.SaveState(job.State); !errors.Is(err, errInjected) {
				t.Fatalf("SaveState error = %v, want injected fault", err)
			}
			*f = faultFS{}
			after, err := os.ReadFile(filepath.Join(s.dir(job.State.ID), stateFile))
			if err != nil {
				t.Fatal(err)
			}
			if string(before) != string(after) {
				t.Fatalf("failed update mutated state.json:\nbefore: %s\nafter:  %s", before, after)
			}
			got, err := s.Load(job.State.ID)
			if err != nil || got.State.Status != StatusPending {
				t.Fatalf("state after failed update = %+v, %v", got.State, err)
			}
		})
	}
}

// TestSaveResultFaults: same atomicity contract for result.json.
func TestSaveResultFaults(t *testing.T) {
	s, f := openTestStore(t)
	job, err := s.Create(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveResult(job.State.ID, []byte("v1\n")); err != nil {
		t.Fatal(err)
	}
	f.failRename = true
	if err := s.SaveResult(job.State.ID, []byte("v2\n")); !errors.Is(err, errInjected) {
		t.Fatalf("SaveResult error = %v", err)
	}
	f.failRename = false
	body, err := s.LoadResult(job.State.ID)
	if err != nil || string(body) != "v1\n" {
		t.Fatalf("result after failed replace = %q, %v (want v1 intact)", body, err)
	}
}

// TestSweep: staged directories and temp files from a crashed writer
// disappear on open; real jobs survive.
func TestSweep(t *testing.T) {
	root := filepath.Join(t.TempDir(), "jobs")
	s, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Create(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	// Simulated crash mid-create and mid-state-write.
	if err := os.MkdirAll(filepath.Join(root, tmpPrefix+"deadbeef00000000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, tmpPrefix+"deadbeef00000000", specFile), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.dir(job.State.ID), tmpPrefix+stateFile), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, tmpPrefix+"deadbeef00000000")); !os.IsNotExist(err) {
		t.Fatal("staged directory survived reopen")
	}
	if _, err := os.Stat(filepath.Join(s2.dir(job.State.ID), tmpPrefix+stateFile)); !os.IsNotExist(err) {
		t.Fatal("temp state file survived reopen")
	}
	jobs, damaged, err := s2.List()
	if err != nil || len(jobs) != 1 || len(damaged) != 0 {
		t.Fatalf("after sweep: jobs=%v damaged=%v err=%v", jobs, damaged, err)
	}
}

// TestListReportsDamage: a job directory with corrupt metadata is
// reported, not fatal, and does not hide healthy jobs.
func TestListReportsDamage(t *testing.T) {
	s, _ := openTestStore(t)
	job, err := s.Create(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.Create(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.dir(bad.State.ID), stateFile), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, damaged, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].State.ID != job.State.ID {
		t.Fatalf("healthy jobs = %v", jobs)
	}
	if len(damaged) != 1 || damaged[0].ID != bad.State.ID || !strings.Contains(damaged[0].Err.Error(), stateFile) {
		t.Fatalf("damaged = %v, want [%s] with a %s parse error", damaged, bad.State.ID, stateFile)
	}
}

// TestInvalidIDsRejected: client-controlled ids must never become
// paths.
func TestInvalidIDsRejected(t *testing.T) {
	s, _ := openTestStore(t)
	for _, id := range []string{"", "..", "../../etc/passwd", "ABCDEF0123456789", "deadbeef", "deadbeefdeadbeefff"} {
		if _, err := s.Load(id); err == nil || !strings.Contains(err.Error(), "invalid job id") {
			t.Fatalf("Load(%q) err = %v", id, err)
		}
		if err := s.Delete(id); err == nil || !strings.Contains(err.Error(), "invalid job id") {
			t.Fatalf("Delete(%q) err = %v", id, err)
		}
	}
}
