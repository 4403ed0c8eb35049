package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cryowire/internal/par"
	"cryowire/internal/platform"
	"cryowire/internal/sim"
)

// Config parameterizes one search.
type Config struct {
	// Space is the design space to search. Validated by Run.
	Space Space
	// Strategy names the search strategy (see Strategies). Empty means
	// the exhaustive grid.
	Strategy string
	// Budget caps the number of evaluated candidates. Zero or negative
	// means the whole space.
	Budget int
	// Seed drives the seeded strategies; runs with equal (space, config,
	// strategy, seed) produce identical results.
	Seed int64
	// Sim is the per-candidate simulation config (run lengths, sim
	// seed). The context is supplied by Run, not here.
	Sim sim.Config
	// Workers bounds parallel candidate evaluation; 0 means
	// par.DefaultWorkers().
	Workers int
	// CheckpointEvery caps how many candidates the engine accepts from
	// the strategy per batch; the journal (and Progress) checkpoint when
	// a batch lands, so this bounds how much work a killed run loses to
	// the unjournaled tail. 0 means defaultCheckpointEvery (64) —
	// enough candidates to keep the worker pool occupied. Purely a
	// scheduling knob: like Workers it is excluded from the journal key
	// and can never change result bytes, because history order is
	// proposal order at any batch size.
	CheckpointEvery int
	// Platform supplies the shared derivation cache; nil means
	// platform.Default().
	Platform *platform.Platform
	// Journal, when non-empty, is the path of the JSON-lines checkpoint
	// journal. Evaluations are appended as they complete; with Resume a
	// prior journal for the same search is replayed instead of
	// re-simulated.
	Journal string
	// Resume allows Journal to already exist and be continued.
	Resume bool
	// Priors are paths of prior checkpoint journals (from earlier runs
	// of the same space and sim config) the surrogate strategies learn
	// from before proposing anything. Only the surrogate strategies
	// accept them; the exact strategies ignore nothing — naming priors
	// with one is a config error. Prior-sourced predictions steer
	// proposals only: they never appear in the Result or the journal.
	Priors []string
	// ScreenMargin is the screen strategy's Pareto-band width in
	// normalized objective units: predicted points at most this far
	// behind the predicted frontier are simulated, the rest skipped.
	// Zero means DefaultScreenMargin; only the screen strategy accepts
	// a non-zero value.
	ScreenMargin float64
	// Progress, when non-nil, observes the search: it is called from
	// the engine goroutine after every evaluation lands in the history
	// (journal replays included) with the count so far and the run's
	// resolved budget. It must not block for long — the search stalls
	// while it runs — and it never influences the result bytes.
	Progress func(evaluated, budget int)
}

// Result is the outcome of one search.
type Result struct {
	// Strategy and Seed echo the search parameters.
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	// SpaceSize is the total number of candidates in the space.
	SpaceSize int `json:"space_size"`
	// Evaluated is how many candidates the search measured.
	Evaluated int `json:"evaluated"`
	// Objectives names the frontier's axes in order.
	Objectives []string `json:"objectives"`
	// Frontier is the non-dominated set, sorted by point index.
	Frontier []Candidate `json:"frontier"`
}

// Run executes one design-space search: it validates the space, replays
// any resumed journal, drives the strategy until the budget or the
// space is exhausted, evaluates each proposed batch on a pool of
// Workers goroutines over the shared platform cache, and extracts the
// Pareto frontier. Evaluations are journaled (and reported via
// cfg.Progress) in proposal order when their strategy batch lands, so
// a kill mid-batch re-simulates only that batch on resume. A failed
// evaluation fails the search: the simulator is deterministic (its
// watchdog counts cycles, not wall time), so trying again could only
// reproduce the error. Cancel ctx to stop between evaluations; a
// journaled run resumed after cancellation continues where it stopped
// and, with the same seed, produces byte-identical output to an
// uninterrupted run — at any Workers setting.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Space.Validate(); err != nil {
		return nil, err
	}
	if cfg.Strategy == "" {
		cfg.Strategy = StrategyGrid
	}
	strat, err := NewStrategy(cfg.Strategy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Platform == nil {
		cfg.Platform = platform.Default()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = par.DefaultWorkers()
	}
	objs := DefaultObjectives()
	// Surrogate wiring: load and key-check the priors, hand them to the
	// strategy, and extend the journal key with the strategy fingerprint
	// so a resume that changed priors or knobs is rejected.
	var stratKey string
	if sa, ok := strat.(surrogateAware); ok {
		priors, err := loadPriors(cfg)
		if err != nil {
			return nil, err
		}
		sa.initSurrogate(priors, cfg.ScreenMargin)
		if stratKey, err = surrogateStrategyKey(cfg, priors); err != nil {
			return nil, err
		}
	} else {
		if len(cfg.Priors) > 0 {
			return nil, fmt.Errorf("dse: priors require a surrogate strategy (%s, %s or %s), got %q",
				StrategySurrogateHill, StrategyEI, StrategyScreen, cfg.Strategy)
		}
		if cfg.ScreenMargin != 0 {
			return nil, fmt.Errorf("dse: a screen margin requires the %q strategy, got %q", StrategyScreen, cfg.Strategy)
		}
	}
	if cfg.ScreenMargin != 0 && cfg.Strategy != StrategyScreen {
		return nil, fmt.Errorf("dse: a screen margin requires the %q strategy, got %q", StrategyScreen, cfg.Strategy)
	}
	if cfg.ScreenMargin < 0 {
		return nil, fmt.Errorf("dse: screen margin must be non-negative, got %g", cfg.ScreenMargin)
	}
	size := cfg.Space.Size()
	budget := cfg.Budget
	if budget <= 0 || budget > size {
		budget = size
	}
	ckpt := cfg.CheckpointEvery
	if ckpt <= 0 {
		ckpt = defaultCheckpointEvery
	}
	var jl *journal
	if cfg.Journal != "" {
		jl, err = openJournal(cfg.Journal, cfg.Space, cfg.Sim, cfg.Resume, stratKey)
		if err != nil {
			return nil, err
		}
		defer jl.close()
	}

	var hist []HistoryEntry
	seen := make(map[int]bool)
	for len(hist) < budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Cap each strategy batch at the checkpoint granularity: the
		// journal is written per batch, so smaller batches bound what a
		// kill can lose. Strategies only ever see the capped remaining
		// count, which keeps their proposal sequence — and therefore
		// every result byte — identical at any CheckpointEvery.
		ask := budget - len(hist)
		if ask > ckpt {
			ask = ckpt
		}
		batch := strat.Next(cfg.Space, hist, ask)
		// Drop out-of-range and repeat proposals; repeats are already in
		// the history and must not consume budget again.
		fresh := batch[:0]
		for _, i := range batch {
			if i >= 0 && i < size && !seen[i] {
				seen[i] = true
				fresh = append(fresh, i)
			}
		}
		if len(fresh) == 0 {
			break
		}
		// Evaluate the batch on the worker pool; journaled candidates
		// are served from the checkpoint without re-simulating. Results
		// land in index-addressed slots, so history order is proposal
		// order — the order the strategy's determinism contract depends
		// on — not completion order.
		evals := make([]Eval, len(fresh))
		errs := make([]error, len(fresh))
		served := make([]bool, len(fresh))
		// Journal lookups happen serially up front: the cache map must
		// not be read while record() grows it.
		for k, i := range fresh {
			if e, ok := jl.lookup(i); ok {
				evals[k] = e
				served[k] = true
			}
		}
		if err := evaluateFresh(ctx, cfg, fresh, served, evals, errs); err != nil {
			return nil, err
		}
		// Journal and report in proposal order once the batch lands.
		// Checkpoint granularity is one strategy batch, appended with one
		// write and one fsync: a kill mid-batch re-simulates the
		// in-flight batch on resume. Served candidates are already on
		// disk and are not re-appended; journal replay is keyed by index,
		// so the line sequence does not affect resume.
		var lines []journalLine
		for k := range fresh {
			if errs[k] == nil && !served[k] {
				lines = append(lines, journalLine{Index: fresh[k], Eval: evals[k]})
			}
		}
		if err := jl.record(lines); err != nil {
			return nil, err
		}
		completed := len(hist)
		for k := range fresh {
			if errs[k] != nil {
				continue
			}
			completed++
			if cfg.Progress != nil {
				cfg.Progress(completed, budget)
			}
		}
		for k, i := range fresh {
			if errs[k] != nil {
				return nil, errs[k]
			}
			hist = append(hist, HistoryEntry{Index: i, Point: cfg.Space.At(i), Eval: evals[k]})
		}
	}

	cands := make([]Candidate, len(hist))
	for i, h := range hist {
		cands[i] = Candidate{Index: h.Index, Point: h.Point, Eval: h.Eval}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].Index < cands[b].Index })
	res := &Result{
		Strategy:  cfg.Strategy,
		Seed:      cfg.Seed,
		SpaceSize: size,
		Evaluated: len(cands),
		Frontier:  paretoFrontier(cands, objs),
	}
	for _, o := range objs {
		res.Objectives = append(res.Objectives, o.Name)
	}
	return res, nil
}

// JSON renders the result as stable, indented JSON — the bytes the
// resume determinism guarantee is stated over.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render formats the frontier as a text report.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dse: strategy=%s seed=%d evaluated=%d/%d candidates\n",
		r.Strategy, r.Seed, r.Evaluated, r.SpaceSize)
	fmt.Fprintf(&b, "Pareto frontier over (%s): %d points\n", strings.Join(r.Objectives, ", "), len(r.Frontier))
	fmt.Fprintf(&b, "  %-32s %9s %7s %8s %9s %10s %9s\n",
		"design", "freq GHz", "IPC", "perf", "watts", "perf/W", "energy")
	for _, c := range r.Frontier {
		e := c.Eval
		fmt.Fprintf(&b, "  %-32s %9.2f %7.3f %8.2f %9.3f %10.2f %9.5f\n",
			c.Point.String(), e.FreqGHz, e.IPC, e.Performance, e.TotalPower, e.PerfPerWatt, e.Energy)
	}
	return b.String()
}
