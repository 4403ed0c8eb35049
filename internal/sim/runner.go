package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cryowire/internal/fault"
	"cryowire/internal/par"
	"cryowire/internal/workload"
)

// LaneSpec names one simulation to run: the design × workload × config
// triple a System is built from. It is the unit the BatchRunner dedups
// and schedules.
type LaneSpec struct {
	Design  Design
	Profile workload.Profile
	Config  Config
}

// LaneError is the typed per-spec failure of a BatchRunner call: it
// names which spec (position in the submitted slice) failed and on what
// design × workload, and wraps the underlying cause so errors.Is/As see
// through it (context cancellation, *StallError, validation errors).
// One failed spec never aborts the others.
type LaneError struct {
	// Lane is the index of the failed spec in the slice the caller
	// submitted to BatchRunner.RunCtx.
	Lane int
	// Design and Workload echo the failed spec.
	Design   string
	Workload string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *LaneError) Error() string {
	return fmt.Sprintf("sim: lane %d (%s/%s): %v", e.Lane, e.Design, e.Workload, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *LaneError) Unwrap() error { return e.Err }

// fingerprint canonicalizes the spec for dedup. Evaluation is a pure
// function of (Design, Profile, Config) — the determinism contract the
// golden fixtures pin — so two specs with equal fingerprints produce
// byte-identical Results. The context never changes the output bytes
// and is excluded; Fault is dereferenced so equal
// scenarios match regardless of pointer identity. Every reachable
// field is a value type (strings, numbers, bools, fixed structs), so
// %#v renders a canonical string: Go's float formatting is
// shortest-round-trip, meaning distinct values always print distinctly.
func (sp LaneSpec) fingerprint() string {
	cfg := sp.Config
	cfg.ctx = nil
	var fc fault.Config
	hasFault := cfg.Fault != nil
	if hasFault {
		fc = *cfg.Fault
	}
	cfg.Fault = nil
	return fmt.Sprintf("%#v|%#v|%#v|%v|%#v", sp.Design, sp.Profile, cfg, hasFault, fc)
}

// run simulates the spec alone through System.Run.
func (sp LaneSpec) run() (Result, error) {
	s, err := New(sp.Design, sp.Profile, sp.Config)
	if err != nil {
		return Result{}, err
	}
	return s.Run()
}

// ResultCache memoizes completed simulations by spec fingerprint, so a
// sweep that revisits a configuration (experiments share rows; DSE
// strategies re-propose grid corners) serves it without re-simulating.
// It computes each fingerprint once: a caller asking for a spec that is
// already being simulated waits for that run instead of starting its
// own. Only successful Results are kept — if the owning run fails (its
// caller's context was canceled, say), the entry is dropped and a
// waiter runs the spec itself. Safe for concurrent use.
type ResultCache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

// cacheEntry is one fingerprint's in-flight or finished simulation;
// done closes when the owning run ends, and ok reports whether it
// produced res.
type cacheEntry struct {
	done chan struct{}
	res  Result
	ok   bool
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{m: make(map[string]*cacheEntry)}
}

// do returns the spec's result: from a finished entry, by waiting on an
// in-flight one, or by running it. simulated reports whether this call
// ran the simulation. A nil cache always runs. A waiter whose ctx ends
// first returns ctx's error.
func (c *ResultCache) do(ctx context.Context, key string, sp LaneSpec) (res Result, simulated bool, err error) {
	if c == nil {
		res, err = sp.run()
		return res, true, err
	}
	for {
		c.mu.Lock()
		e, ok := c.m[key]
		if !ok {
			e = &cacheEntry{done: make(chan struct{})}
			c.m[key] = e
			c.mu.Unlock()
			res, err = c.own(key, e, sp)
			return res, true, err
		}
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return Result{}, false, ctx.Err()
		}
		if e.ok {
			return e.res, false, nil
		}
		// The owner failed and dropped the entry: claim it afresh.
	}
}

// own runs the spec for the entry this caller installed. A failed (or
// panicking) run drops the entry before waking the waiters, so one of
// them claims the fingerprint afresh instead of finding it failed.
func (c *ResultCache) own(key string, e *cacheEntry, sp LaneSpec) (Result, error) {
	defer func() {
		if !e.ok {
			c.mu.Lock()
			delete(c.m, key)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	res, err := sp.run()
	if err == nil {
		e.res, e.ok = res, true
	}
	return res, err
}

// BatchRunner runs a slice of LaneSpecs: it dedups identical specs
// (within the call and, with Cache, across calls), then runs each
// unique spec alone through System.Run on a pool of Workers goroutines
// that pull the next spec as they free up. Results are index-aligned
// with the submitted specs and bit-identical to running each spec
// alone, at any worker count.
type BatchRunner struct {
	// Lanes is ignored.
	//
	// Deprecated: specs no longer share a lockstep cycle loop, so
	// there is no batch width to set. The field stays only so callers
	// written against the lockstep engine (bench/registry.go sets it)
	// still compile.
	Lanes int
	// Workers bounds concurrent simulations; 0 or 1 runs them serially.
	Workers int
	// Cache, when non-nil, serves previously completed specs without
	// re-simulating, shares in-flight runs with concurrent callers, and
	// records new completions.
	Cache *ResultCache
}

// RunCtx runs every spec and returns results and errors index-aligned
// with specs. Failures are per-spec *LaneErrors (Lane = index into
// specs); one failed spec never aborts the others. ctx cancels the
// whole call: simulations already running stop at their next
// cancellation poll, specs not yet started are skipped, and every
// unfinished spec reports a *LaneError wrapping ctx's error. Specs
// whose Config already carries a context keep it; the rest inherit ctx.
func (r *BatchRunner) RunCtx(ctx context.Context, specs []LaneSpec) ([]Result, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Group the specs by fingerprint, in order of first occurrence.
	var keys []string
	slots := make(map[string][]int, len(specs))
	for i, sp := range specs {
		k := sp.fingerprint()
		if _, ok := slots[k]; !ok {
			keys = append(keys, k)
		}
		slots[k] = append(slots[k], i)
	}

	ures := make([]Result, len(keys))
	uerrs := make([]error, len(keys))
	ran := make([]bool, len(keys))
	var simulated atomic.Bool
	// Specs the pool never started are found through ran below.
	par.ForCtx(ctx, len(keys), r.Workers, func(u int) {
		ran[u] = true
		sp := specs[slots[keys[u]][0]]
		if sp.Config.ctx == nil {
			sp.Config = sp.Config.WithContext(ctx)
		}
		res, fresh, err := r.Cache.do(ctx, keys[u], sp)
		switch {
		case fresh:
			simulated.Store(true)
			bstats.cacheMisses.Add(1)
		case err == nil:
			bstats.cacheHits.Add(1)
		}
		ures[u], uerrs[u] = res, err
	})
	if simulated.Load() {
		bstats.batches.Add(1)
	}

	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	for u, k := range keys {
		idxs := slots[k]
		err := uerrs[u]
		if !ran[u] {
			// Skipped by cancellation.
			err = ctx.Err()
		}
		if err == nil {
			// In-call duplicates share the first occurrence's result.
			bstats.cacheHits.Add(uint64(len(idxs) - 1))
		}
		for _, i := range idxs {
			if err != nil {
				errs[i] = &LaneError{Lane: i, Design: specs[i].Design.Name, Workload: specs[i].Profile.Name, Err: err}
				bstats.laneFailures.Add(1)
				continue
			}
			results[i] = ures[u]
		}
	}
	return results, errs
}

// BatchStats is the package-wide runner telemetry snapshot exposed on
// /metrics.
type BatchStats struct {
	// Batches counts RunCtx calls that simulated at least one spec.
	Batches uint64
	// Lanes counts specs simulated; Lanes / Batches is the mean number
	// of simulations per call. It always equals CacheMisses; it stays
	// because bench/simlong.go reads it.
	Lanes uint64
	// CacheHits counts specs served by dedup (result cache, a
	// concurrent caller's in-flight run, or an in-call duplicate);
	// CacheMisses counts specs actually simulated.
	CacheHits   uint64
	CacheMisses uint64
	// LaneFailures counts specs that ended in a LaneError.
	LaneFailures uint64
}

var bstats struct {
	batches                atomic.Uint64
	cacheHits, cacheMisses atomic.Uint64
	laneFailures           atomic.Uint64
}

// ReadBatchStats snapshots the runner counters.
func ReadBatchStats() BatchStats {
	misses := bstats.cacheMisses.Load()
	return BatchStats{
		Batches:      bstats.batches.Load(),
		Lanes:        misses,
		CacheHits:    bstats.cacheHits.Load(),
		CacheMisses:  misses,
		LaneFailures: bstats.laneFailures.Load(),
	}
}
