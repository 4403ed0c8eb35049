package jobs

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"cryowire/internal/dse"
	"cryowire/internal/platform"
)

// Options tunes the manager. The zero value runs one job at a time.
type Options struct {
	// MaxConcurrent bounds jobs running simultaneously (default 1 —
	// each job already fans its evaluations out over the CPUs).
	MaxConcurrent int
	// Platform supplies the shared derivation cache; nil means
	// platform.Default().
	Platform *platform.Platform
	// Logger receives job lifecycle lines; nil uses slog.Default.
	Logger *slog.Logger
}

// Manager owns the store and drives jobs to completion: Submit
// enqueues, a bounded set of runner goroutines executes, Drain
// checkpoints, and Open's recovery scan resumes whatever a crash or
// drain left behind. All public methods are safe for concurrent use.
type Manager struct {
	store *Store
	opts  Options
	log   *slog.Logger

	// bootID distinguishes this process incarnation in SSE event ids:
	// a Last-Event-ID from a previous incarnation is treated as stale
	// (sequence counters restart with the process).
	bootID string

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	sem    chan struct{}

	mu       sync.Mutex
	jobs     map[string]*tracked
	draining bool
	drainCh  chan struct{}

	// run indirects the engine entry point so tests can interpose on
	// timing; production always points at dse.Run.
	run func(ctx context.Context, cfg dse.Config) (*dse.Result, error)

	// Counters for /metrics.
	submitted, completed, failed, canceled, resumed atomic.Uint64
}

// tracked is the in-memory view of one job.
type tracked struct {
	spec  Spec
	state State
	// seq bumps on every observable change; SSE event ids are
	// "<bootID>-<seq>".
	seq uint64
	// watchers are signal channels (cap 1) poked on every change.
	watchers map[chan struct{}]struct{}
	// jobCancel stops the running search; nil unless running.
	jobCancel context.CancelFunc
	// stopStatus tells the runner's error path which terminal-ish
	// status a deliberate cancellation should land on (interrupted for
	// drain, canceled for client cancels).
	stopStatus Status
}

// Open opens the store rooted at dir and loads every job into memory.
// Jobs found in StatusRunning crashed with their previous process and
// are normalized to StatusInterrupted (persisted). Nothing runs until
// Start.
func Open(dir string, opts Options) (*Manager, error) {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 1
	}
	if opts.Platform == nil {
		opts.Platform = platform.Default()
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	store, err := OpenStore(dir)
	if err != nil {
		return nil, err
	}
	boot, err := newID()
	if err != nil {
		return nil, err
	}
	m := &Manager{
		store:   store,
		opts:    opts,
		log:     opts.Logger,
		bootID:  boot,
		sem:     make(chan struct{}, opts.MaxConcurrent),
		jobs:    make(map[string]*tracked),
		drainCh: make(chan struct{}),
		run:     dse.Run,
	}
	jobs, damaged, err := store.List()
	if err != nil {
		return nil, err
	}
	for _, d := range damaged {
		m.log.Warn("jobs: skipping damaged job directory", "id", d.ID, "err", d.Err)
	}
	for _, j := range jobs {
		if j.State.Status == StatusRunning {
			// The process that claimed it is gone; the journal holds its
			// completed work.
			j.State.Status = StatusInterrupted
			if j.State, err = store.SaveState(j.State); err != nil {
				return nil, fmt.Errorf("jobs: normalize crashed job %s: %w", j.State.ID, err)
			}
		}
		m.jobs[j.State.ID] = &tracked{spec: j.Spec, state: j.State, watchers: make(map[chan struct{}]struct{})}
	}
	return m, nil
}

// Start binds the manager's lifetime to ctx and enqueues every
// resumable job found by the recovery scan. Call once.
func (m *Manager) Start(ctx context.Context) {
	m.ctx, m.cancel = context.WithCancel(ctx)
	m.mu.Lock()
	var resume []*tracked
	for _, t := range m.jobs {
		if !t.state.Status.Terminal() {
			resume = append(resume, t)
		}
	}
	m.mu.Unlock()
	for _, t := range resume {
		if t.state.Status == StatusInterrupted {
			m.resumed.Add(1)
			m.log.Info("jobs: resuming interrupted job", "id", t.state.ID, "evaluated", t.state.Evaluated, "total", t.state.Total)
		}
		m.enqueue(t)
	}
}

// BootID identifies this process incarnation (SSE event-id prefix).
func (m *Manager) BootID() string { return m.bootID }

// Submit validates, durably creates and enqueues one job, returning
// its initial state. The job is on disk before this returns: a crash
// immediately after sees it pending and runs it.
func (m *Manager) Submit(sp Spec) (State, error) {
	if _, err := sp.Config(); err != nil {
		return State{}, err
	}
	if _, err := dse.NewStrategy(orGrid(sp.Strategy), sp.Seed); err != nil {
		return State{}, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return State{}, fmt.Errorf("jobs: manager is draining")
	}
	m.mu.Unlock()
	job, err := m.store.Create(sp)
	if err != nil {
		return State{}, err
	}
	t := &tracked{spec: job.Spec, state: job.State, watchers: make(map[chan struct{}]struct{})}
	m.mu.Lock()
	m.jobs[job.State.ID] = t
	m.mu.Unlock()
	m.submitted.Add(1)
	m.log.Info("jobs: submitted", "id", job.State.ID, "total", job.State.Total)
	m.enqueue(t)
	return job.State, nil
}

// orGrid defaults an empty strategy name like the engine does.
func orGrid(s string) string {
	if s == "" {
		return dse.StrategyGrid
	}
	return s
}

// Get returns a job's spec, current state and change sequence.
func (m *Manager) Get(id string) (Spec, State, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.jobs[id]
	if !ok {
		return Spec{}, State{}, 0, os.ErrNotExist
	}
	return t.spec, t.state, t.seq, nil
}

// List returns every job's state, oldest first.
func (m *Manager) List() []State {
	m.mu.Lock()
	out := make([]State, 0, len(m.jobs))
	for _, t := range m.jobs {
		out = append(out, t.state)
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.Before(out[b].Created)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Journal returns a job's raw checkpoint journal bytes — empty until
// the first checkpoint. The journal is appended atomically per line,
// so a concurrent read sees a valid prefix (readers drop a torn tail).
func (m *Manager) Journal(id string) ([]byte, error) {
	m.mu.Lock()
	_, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, os.ErrNotExist
	}
	return m.store.LoadJournal(id)
}

// Result returns the result document of a done job.
func (m *Manager) Result(id string) ([]byte, error) {
	m.mu.Lock()
	t, ok := m.jobs[id]
	var st State
	if ok {
		st = t.state
	}
	m.mu.Unlock()
	if !ok {
		return nil, os.ErrNotExist
	}
	if st.Status != StatusDone {
		return nil, fmt.Errorf("jobs: job %s is %s, not done", id, st.Status)
	}
	return m.store.LoadResult(id)
}

// Cancel stops a pending or running job. Terminal jobs return their
// state unchanged with changed=false.
func (m *Manager) Cancel(id string) (st State, changed bool, err error) {
	m.mu.Lock()
	t, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return State{}, false, os.ErrNotExist
	}
	if t.state.Status.Terminal() {
		st = t.state
		m.mu.Unlock()
		return st, false, nil
	}
	if t.jobCancel != nil {
		// Running: the runner's error path persists the terminal state.
		t.stopStatus = StatusCanceled
		cancel := t.jobCancel
		m.mu.Unlock()
		cancel()
		m.mu.Lock()
		st = t.state
		m.mu.Unlock()
		return st, true, nil
	}
	// Pending (or interrupted awaiting a slot): flip durably now; the
	// runner re-checks before claiming.
	t.state.Status = StatusCanceled
	st, err = m.store.SaveState(t.state)
	if err == nil {
		t.state = st
	}
	m.notifyLocked(t)
	m.mu.Unlock()
	if err != nil {
		return State{}, false, err
	}
	m.canceled.Add(1)
	return st, true, nil
}

// Delete removes a terminal job from the store and memory. Active jobs
// must be canceled first.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	t, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return os.ErrNotExist
	}
	if !t.state.Status.Terminal() {
		m.mu.Unlock()
		return fmt.Errorf("jobs: job %s is %s; cancel it before deleting", id, t.state.Status)
	}
	delete(m.jobs, id)
	m.mu.Unlock()
	return m.store.Delete(id)
}

// Subscribe registers for change signals on a job. The returned
// channel is poked (never blocked on) after every observable change;
// read the fresh state with Get. Call the cancel func when done.
func (m *Manager) Subscribe(id string) (<-chan struct{}, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.jobs[id]
	if !ok {
		return nil, nil, os.ErrNotExist
	}
	ch := make(chan struct{}, 1)
	t.watchers[ch] = struct{}{}
	return ch, func() {
		m.mu.Lock()
		delete(t.watchers, ch)
		m.mu.Unlock()
	}, nil
}

// Draining returns a channel closed when drain begins — long-lived
// subscribers (SSE streams) use it to end before HTTP shutdown waits
// on them.
func (m *Manager) Draining() <-chan struct{} { return m.drainCh }

// QueueDepth counts jobs that are pending, interrupted or running —
// the backlog a new submission queues behind.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.jobs {
		if !t.state.Status.Terminal() {
			n++
		}
	}
	return n
}

// Stats snapshots the manager for /metrics.
type Stats struct {
	ByStatus                                        map[Status]int
	Submitted, Completed, Failed, Canceled, Resumed uint64
}

// Snapshot returns current counters and per-status job counts.
func (m *Manager) Snapshot() Stats {
	st := Stats{ByStatus: make(map[Status]int)}
	m.mu.Lock()
	for _, t := range m.jobs {
		st.ByStatus[t.state.Status]++
	}
	m.mu.Unlock()
	st.Submitted = m.submitted.Load()
	st.Completed = m.completed.Load()
	st.Failed = m.failed.Load()
	st.Canceled = m.canceled.Load()
	st.Resumed = m.resumed.Load()
	return st
}

// Drain checkpoints every running job and stops the manager: running
// searches are canceled (their journals already hold every completed
// evaluation), their states land on StatusInterrupted, and pending
// jobs stay pending — the next Open/Start resumes all of them. Drain
// returns when every runner goroutine has persisted its state or ctx
// expires.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	close(m.drainCh)
	m.mu.Unlock()
	// Cancel the manager context BEFORE waiting: it stops running
	// searches (their default stopStatus, interrupted, is the drain
	// semantics — a client Cancel that raced in first wins with
	// canceled) and unblocks enqueued goroutines still waiting for a
	// runner slot, whose jobs stay durably pending for the next boot.
	if m.cancel != nil {
		m.cancel()
	}
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain timed out: %w", ctx.Err())
	}
}

// enqueue hands a job to the bounded runner pool.
func (m *Manager) enqueue(t *tracked) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		select {
		case m.sem <- struct{}{}:
			defer func() { <-m.sem }()
		case <-m.ctx.Done():
			return // still pending/interrupted on disk; next boot resumes it
		}
		m.runJob(t)
	}()
}

// runJob executes one job to a terminal or interrupted state.
func (m *Manager) runJob(t *tracked) {
	m.mu.Lock()
	if t.state.Status.Terminal() || m.draining {
		m.mu.Unlock()
		return
	}
	jctx, jcancel := context.WithCancel(m.ctx)
	defer jcancel()
	t.jobCancel = jcancel
	t.stopStatus = StatusInterrupted
	t.state.Status = StatusRunning
	id := t.state.ID
	st, err := m.store.SaveState(t.state)
	if err == nil {
		t.state = st
	}
	m.notifyLocked(t)
	m.mu.Unlock()
	if err != nil {
		// Could not durably claim the job: do not run work the store
		// cannot account for.
		m.finish(t, StatusFailed, fmt.Errorf("jobs: claim %s: %w", id, err))
		return
	}

	cfg, err := t.spec.Config()
	if err != nil {
		m.finish(t, StatusFailed, err)
		return
	}
	cfg.Platform = m.opts.Platform
	cfg.Journal = m.store.JournalPath(id)
	if fi, err := os.Stat(cfg.Journal); err == nil && fi.Size() > 0 {
		cfg.Resume = true
	}
	cfg.Progress = func(evaluated, total int) {
		m.mu.Lock()
		t.state.Evaluated = evaluated
		t.state.Total = total
		m.notifyLocked(t)
		m.mu.Unlock()
	}

	res, err := m.run(jctx, cfg)
	if err != nil {
		if jctx.Err() != nil {
			// Deliberate stop (drain or client cancel) or parent
			// shutdown; the journal checkpoint holds the finished work.
			m.mu.Lock()
			stop := t.stopStatus
			m.mu.Unlock()
			m.finish(t, stop, nil)
			return
		}
		m.finish(t, StatusFailed, err)
		return
	}
	body, err := res.JSON()
	if err != nil {
		m.finish(t, StatusFailed, err)
		return
	}
	// Match `cryowire dse -json` stdout byte for byte.
	if err := m.store.SaveResult(id, append(body, '\n')); err != nil {
		m.finish(t, StatusFailed, err)
		return
	}
	m.mu.Lock()
	t.state.Evaluated = res.Evaluated
	m.mu.Unlock()
	m.finish(t, StatusDone, nil)
}

// finish lands a job on its final (or interrupted) status, persists it
// and notifies watchers. A persistence failure here is logged but not
// fatal: the journal still holds the work, and recovery re-derives the
// rest.
func (m *Manager) finish(t *tracked, status Status, cause error) {
	m.mu.Lock()
	t.jobCancel = nil
	t.state.Status = status
	t.state.Error = ""
	if cause != nil {
		t.state.Error = cause.Error()
	}
	st, err := m.store.SaveState(t.state)
	if err == nil {
		t.state = st
	}
	// Count the outcome before unlocking, so a reader that sees the
	// final status under m.mu also sees it in Stats.
	switch status {
	case StatusDone:
		m.completed.Add(1)
	case StatusFailed:
		m.failed.Add(1)
	case StatusCanceled:
		m.canceled.Add(1)
	}
	m.notifyLocked(t)
	id := t.state.ID
	m.mu.Unlock()
	if err != nil {
		m.log.Error("jobs: persisting final state failed", "id", id, "status", status, "err", err)
	}
	m.log.Info("jobs: finished", "id", id, "status", string(status), "err", errStr(cause))
}

// notifyLocked bumps the sequence and pokes every watcher. Caller
// holds m.mu.
func (m *Manager) notifyLocked(t *tracked) {
	t.seq++
	for ch := range t.watchers {
		select {
		case ch <- struct{}{}:
		default: // watcher already has a wakeup queued
		}
	}
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
