package jobs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cryowire/internal/dse"
	"cryowire/internal/platform"
)

func quietOpts() Options {
	return Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

// referenceBytes runs the same search synchronously, with no journal
// and no interference, and returns the result document the async path
// must reproduce byte for byte.
func referenceBytes(t *testing.T, sp Spec) []byte {
	t.Helper()
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Platform = platform.Default()
	res, err := dse.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func waitStatus(t *testing.T, m *Manager, id string, want Status) State {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, st, _, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == want {
			return st
		}
		if st.Status.Terminal() {
			t.Fatalf("job %s landed on %s (error %q), want %s", id, st.Status, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for job %s to reach %s", id, want)
	return State{}
}

// TestSubmitRunsToCompletion: the async path produces the exact bytes
// of a synchronous run.
func TestSubmitRunsToCompletion(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	m, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Drain(context.Background())

	sp := testSpec(4)
	st, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitStatus(t, m, st.ID, StatusDone)
	if fin.Evaluated != 4 {
		t.Fatalf("evaluated = %d, want 4", fin.Evaluated)
	}
	got, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceBytes(t, sp); !bytes.Equal(got, want) {
		t.Fatalf("async result differs from synchronous run:\n got: %s\nwant: %s", got, want)
	}
	stats := m.Snapshot()
	if stats.Submitted != 1 || stats.Completed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestDrainCheckpointsAndResume is the graceful-drain contract: drain
// must checkpoint an in-flight job (interrupted + journal intact), not
// abandon it, and a fresh manager on the same directory must resume it
// to a result byte-identical to an uninterrupted run.
func TestDrainCheckpointsAndResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	m, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Gate the engine: journal two evaluations, then hold mid-run until
	// drain cancels the job context, returning exactly what the real
	// engine returns when a drain interrupts it.
	reached := make(chan struct{})
	var once sync.Once
	m.run = func(jctx context.Context, cfg dse.Config) (*dse.Result, error) {
		c := cfg
		c.Budget = 2
		if _, err := dse.Run(jctx, c); err != nil {
			return nil, err
		}
		once.Do(func() { close(reached) })
		<-jctx.Done()
		return nil, jctx.Err()
	}
	m.Start(ctx)

	sp := testSpec(8)
	st, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Checkpointed, not abandoned: durable state says interrupted and
	// the journal holds the finished evaluations.
	onDisk, err := m.store.Load(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State.Status != StatusInterrupted {
		t.Fatalf("state after drain = %s, want interrupted", onDisk.State.Status)
	}
	journal, err := os.ReadFile(filepath.Join(dir, st.ID, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(journal, []byte("\n")); lines < 3 { // header + >=2 evals
		t.Fatalf("journal has %d lines after drain, want >= 3", lines)
	}

	// A fresh manager resumes it to the exact uninterrupted bytes.
	m2, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	m2.Start(ctx)
	defer m2.Drain(context.Background())
	fin := waitStatus(t, m2, st.ID, StatusDone)
	if fin.Evaluated != 8 {
		t.Fatalf("resumed evaluated = %d, want 8", fin.Evaluated)
	}
	got, err := m2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceBytes(t, sp); !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n got: %s\nwant: %s", got, want)
	}
	if m2.Snapshot().Resumed != 1 {
		t.Fatalf("resumed counter = %d, want 1", m2.Snapshot().Resumed)
	}
}

// TestCrashedRunningJobRecovered: a job left in StatusRunning by a
// dead process is normalized to interrupted on open and runs to
// completion after Start.
func TestCrashedRunningJobRecovered(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec(4)
	job, err := s.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	job.State.Status = StatusRunning
	if _, err := s.SaveState(job.State); err != nil {
		t.Fatal(err)
	}

	m, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	_, st, _, err := m.Get(job.State.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusInterrupted {
		t.Fatalf("crashed job normalized to %s, want interrupted", st.Status)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Drain(context.Background())
	waitStatus(t, m, job.State.ID, StatusDone)
	got, err := m.Result(job.State.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceBytes(t, sp); !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs:\n got: %s\nwant: %s", got, want)
	}
}

// TestRetiredRangeSpecNeverRuns: a pending job whose spec.json an
// earlier release wrote with a point-index range is reported damaged on
// Open, with the decode error in the warning, and never runs — running
// it without its range would search the whole space.
func TestRetiredRangeSpecNeverRuns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Create(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	id := job.State.ID
	if err := os.WriteFile(filepath.Join(s.dir(id), specFile), []byte(rangedSpecJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	m, err := Open(dir, Options{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	m.run = func(ctx context.Context, cfg dse.Config) (*dse.Result, error) {
		t.Errorf("job ran over %d points", cfg.Space.Size())
		return nil, errors.New("must not run")
	}
	m.Start(context.Background())
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Get(id); err == nil {
		t.Fatal("job with a retired range was loaded")
	}
	if _, err := os.Stat(s.JournalPath(id)); !os.IsNotExist(err) {
		t.Fatalf("journal stat err = %v, want not-exist", err)
	}
	for _, want := range []string{"skipping damaged job directory", id, "range_start"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log missing %q:\n%s", want, logs.String())
		}
	}
}

// TestCancelRunning: canceling mid-run lands on canceled (not
// interrupted), keeps the journal, and the terminal job can be
// deleted.
func TestCancelRunning(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	m, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	reached := make(chan struct{})
	var once sync.Once
	m.run = func(jctx context.Context, cfg dse.Config) (*dse.Result, error) {
		c := cfg
		c.Budget = 1
		if _, err := dse.Run(jctx, c); err != nil {
			return nil, err
		}
		once.Do(func() { close(reached) })
		<-jctx.Done()
		return nil, jctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Drain(context.Background())

	st, err := m.Submit(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	if _, changed, err := m.Cancel(st.ID); err != nil || !changed {
		t.Fatalf("Cancel = changed=%v err=%v", changed, err)
	}
	fin := waitStatus(t, m, st.ID, StatusCanceled)
	if fin.Error != "" {
		t.Fatalf("canceled job carries error %q", fin.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, st.ID, journalFile)); err != nil {
		t.Fatalf("journal gone after cancel: %v", err)
	}
	// Cancel on a terminal job is a no-op.
	if _, changed, err := m.Cancel(st.ID); err != nil || changed {
		t.Fatalf("second Cancel = changed=%v err=%v", changed, err)
	}
	if err := m.Delete(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Get(st.ID); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Get after Delete = %v", err)
	}
}

// TestCancelPending: with one runner slot occupied, a queued job can be
// canceled durably before it ever runs; the slot-holder completes.
func TestCancelPending(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	m, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	m.run = func(jctx context.Context, cfg dse.Config) (*dse.Result, error) {
		once.Do(func() { close(running) })
		select {
		case <-hold:
		case <-jctx.Done():
		}
		return dse.Run(jctx, cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Drain(context.Background())

	a, err := m.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	<-running
	b, err := m.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, changed, err := m.Cancel(b.ID); err != nil || !changed {
		t.Fatalf("Cancel pending = changed=%v err=%v", changed, err)
	}
	onDisk, err := m.store.Load(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State.Status != StatusCanceled {
		t.Fatalf("pending cancel not durable: disk says %s", onDisk.State.Status)
	}
	close(hold)
	waitStatus(t, m, a.ID, StatusDone)
	// The canceled job never ran: no journal was created.
	if _, err := os.Stat(filepath.Join(dir, b.ID, journalFile)); !os.IsNotExist(err) {
		t.Fatalf("canceled-before-run job has a journal (stat err=%v)", err)
	}
}

// TestSubmitValidation: bad specs are rejected before any disk state,
// and a draining manager refuses new work.
func TestSubmitValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	m, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	bad := testSpec(2)
	bad.Workloads = []string{"no-such-workload"}
	if _, err := m.Submit(bad); err == nil {
		t.Fatal("unknown workload accepted")
	}
	bad = testSpec(2)
	bad.Strategy = "simulated-annealing"
	if _, err := m.Submit(bad); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if jobs, _, _ := m.store.List(); len(jobs) != 0 {
		t.Fatalf("rejected submissions left %d jobs on disk", len(jobs))
	}

	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec(2)); err == nil {
		t.Fatal("draining manager accepted a submission")
	}
}

// TestSubscribeSignals: watchers are poked on progress and completion.
func TestSubscribeSignals(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	m, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Drain(context.Background())

	st, err := m.Submit(testSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := m.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	var lastSeq uint64
	deadline := time.After(30 * time.Second)
	for {
		select {
		case <-ch:
		case <-deadline:
			t.Fatal("no completion signal")
		}
		_, cur, seq, err := m.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		// Signals coalesce, so a wakeup may find a seq we already saw;
		// it must never run backwards.
		if seq < lastSeq {
			t.Fatalf("sequence ran backwards: %d -> %d", lastSeq, seq)
		}
		lastSeq = seq
		if cur.Status == StatusDone {
			if lastSeq == 0 {
				t.Fatal("no sequence bumps observed")
			}
			return
		}
		if cur.Status.Terminal() {
			t.Fatalf("job landed on %s", cur.Status)
		}
	}
}
