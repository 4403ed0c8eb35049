package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cryowire/internal/dse"
	"cryowire/internal/experiments"
	"cryowire/internal/platform"
	"cryowire/internal/sim"
)

// dseFull is one exhaustive 576-point design-space search: the only
// workload that pays for core derivations at 150 K and 100 K, power and
// cooling pricing, a fsync'd journal append per batch, and Pareto
// extraction. One operation is a search; the work is candidates.
var dseFull = &workload{
	name:         "dse-full",
	nominal:      4600 * time.Millisecond,
	minPasses:    3,
	tracedPasses: 2,
	open:         openDSE,
	section:      dseSection,
}

// checkpointEvery is the DSE engine's default batch size, set
// explicitly where the benchmark needs to know where batches end.
const checkpointEvery = 64

func dseSim(seed int64) sim.Config {
	cfg := experiments.QuickOptions().Sim
	cfg.Seed = seed
	return cfg
}

type dseSession struct {
	r     *runner
	space dse.Space
	dir   string
	n     int
	// ref is the first search's Result JSON; every search at the same
	// seed must produce the same bytes.
	ref []byte
}

// openDSE makes the directory the searches journal into.
func openDSE(r *runner, e *env) (session, error) {
	dir, err := os.MkdirTemp("", "cryowire-bench-dse-*")
	if err != nil {
		return nil, err
	}
	return &dseSession{r: r, space: e.space, dir: dir}, nil
}

func (s *dseSession) close() { os.RemoveAll(s.dir) }

func (s *dseSession) pass(tr *Tracer, parent int64, _ float64) (passResult, error) {
	s.n++
	journal := filepath.Join(s.dir, fmt.Sprintf("search-%d.jsonl", s.n))
	defer os.Remove(journal)
	cfg := dse.Config{
		Space: s.space, Strategy: dse.StrategyGrid, Seed: s.r.seed, Sim: dseSim(s.r.seed),
		Platform: platform.New(), Workers: s.r.workers, Journal: journal,
	}
	id, end := tr.Begin(parent, "dse.Run")
	if tr != nil {
		cfg.CheckpointEvery = checkpointEvery
		last := time.Now()
		cfg.Progress = func(evaluated, _ int) {
			if (evaluated-1)%checkpointEvery == 0 {
				now := time.Now()
				tr.Add(id, "dse.batch", last, now)
				last = now
			}
		}
	}
	var res *dse.Result
	var err error
	wall := timed(func() { res, err = dse.Run(context.Background(), cfg) })
	end()

	s.r.attempt(1)
	if err != nil {
		s.r.fail("search: %v", err)
		return passResult{ops: []float64{wall * 1e3}, wall: wall}, nil
	}
	b, err := res.JSON()
	if err != nil {
		return passResult{}, err
	}
	if s.ref == nil {
		s.ref = b
	} else if !bytes.Equal(b, s.ref) {
		s.r.fail("search %d: Result JSON differs from the first search", s.n)
	}
	return passResult{ops: []float64{wall * 1e3}, work: float64(res.Evaluated), wall: wall}, nil
}

// dseSection measures the DSE layer around one journaled grid search:
// the time per batch, the cost of the journal (journaled minus
// journal-less search), replaying a complete journal, the platform
// cache per search, and the strategy bake-off.
func dseSection(r *runner) error {
	space := dse.DefaultSpace(false)
	dir, err := os.MkdirTemp("", "cryowire-bench-dse-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	base := dse.Config{Space: space, Seed: r.seed, Sim: dseSim(r.seed), Workers: r.workers, CheckpointEvery: checkpointEvery}
	// search runs one search on a fresh platform (unless cfg brings
	// one) and returns its result JSON, nil when it failed, and its
	// host seconds.
	search := func(name string, cfg dse.Config) (*dse.Result, []byte, float64) {
		if cfg.Platform == nil {
			cfg.Platform = platform.New()
		}
		var res *dse.Result
		var err error
		var d float64
		r.span(0, name, func(int64) {
			d = timed(func() { res, err = dse.Run(context.Background(), cfg) })
		})
		r.attempt(1)
		var b []byte
		if err == nil {
			b, err = res.JSON()
		}
		if err != nil {
			r.fail("%s: %v", name, err)
			return nil, nil, d
		}
		return res, b, d
	}

	grid := base
	grid.Strategy = dse.StrategyGrid
	grid.Journal = filepath.Join(dir, dse.StrategyGrid+".jsonl")
	grid.Platform = platform.New()
	start := time.Now()
	var gaps []float64
	grid.Progress = func(evaluated, _ int) {
		if (evaluated-1)%checkpointEvery == 0 {
			now := time.Now()
			gaps = append(gaps, now.Sub(start).Seconds())
			start = now
		}
	}
	gridRes, ref, withJournal := search("dse.Run/grid", grid)
	if gridRes == nil {
		return fmt.Errorf("the journaled grid search failed")
	}
	r.put("dse.batch_s", gaps...)
	ps := grid.Platform.Stats()
	r.put("platform.hits_per_search", float64(ps.Hits))
	r.put("platform.misses_per_search", float64(ps.Misses))
	r.put("dse.frontier_size", float64(len(gridRes.Frontier)))

	_, plainJSON, plain := search("dse.Run/grid-nojournal", base)
	r.put("dse.journal_overhead_s", withJournal-plain)
	replay := base
	replay.Journal, replay.Resume = grid.Journal, true
	_, replayJSON, replayed := search("dse.Run/grid-replay", replay)
	r.put("dse.replay_s", replayed)
	for name, b := range map[string][]byte{"journal-less": plainJSON, "replayed": replayJSON} {
		if b != nil && !bytes.Equal(b, ref) {
			r.fail("%s grid search: Result JSON differs from the journaled search", name)
		}
	}

	missing := 0
	for _, st := range dse.Strategies() {
		journal := grid.Journal
		if st != dse.StrategyGrid {
			cfg := base
			cfg.Strategy = st
			cfg.Journal = filepath.Join(dir, st+".jsonl")
			if st == dse.StrategyScreen {
				cfg.Priors = []string{grid.Journal}
			}
			if res, _, _ := search("dse.Run/"+st, cfg); res == nil {
				journal = ""
			} else {
				journal = cfg.Journal
			}
		}
		n, ok := space.Size(), false
		if journal != "" {
			var err error
			if n, ok, err = simsToFrontier(journal, space, base.Sim, gridRes.Frontier); err != nil {
				r.fail("%s journal: %v", st, err)
			}
		}
		if !ok {
			n = space.Size()
			missing++
			fmt.Fprintf(os.Stderr, "bench: strategy %s never reached the grid frontier\n", st)
		}
		r.put("dse.sims_to_frontier."+st, float64(n))
	}
	r.put("dse.strategies_missing_frontier", float64(missing))
	return nil
}

// simsToFrontier replays a journal in append order — the order the
// search simulated its candidates — and returns the length of the
// shortest prefix whose Pareto frontier equals want, by point index.
func simsToFrontier(path string, space dse.Space, cfg sim.Config, want []dse.Candidate) (int, bool, error) {
	entries, err := journalInOrder(path, space, cfg)
	if err != nil {
		return 0, false, err
	}
	wantIdx := make(map[int]bool, len(want))
	for _, c := range want {
		wantIdx[c.Index] = true
	}
	var front []dse.Candidate
	for k, e := range entries {
		front = dse.MergeFrontiers(nil, front, []dse.Candidate{{Index: e.Index, Point: space.At(e.Index), Eval: e.Eval}})
		if len(front) == len(wantIdx) {
			same := true
			for _, c := range front {
				same = same && wantIdx[c.Index]
			}
			if same {
				return k + 1, true, nil
			}
		}
	}
	return len(entries), false, nil
}

// journalInOrder returns a journal's entries in the order they were
// appended. dse.ReadJournal validates the header and the entries but
// returns them sorted by index, so the lines are read again in order.
func journalInOrder(path string, space dse.Space, cfg sim.Config) ([]dse.JournalEntry, error) {
	if _, err := dse.ReadJournal(path, space, cfg); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []dse.JournalEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for first := true; sc.Scan(); first = false {
		if first {
			continue // the header line
		}
		var e dse.JournalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", len(out)+2, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
