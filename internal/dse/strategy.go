package dse

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Strategy names accepted by Config.Strategy.
const (
	StrategyGrid      = "grid"
	StrategyRandom    = "random"
	StrategyHillClimb = "hillclimb"
)

// Strategies lists the built-in strategy names in canonical order.
// The surrogate-accelerated trio (surrogate.go) comes after the
// exact strategies.
func Strategies() []string {
	return []string{StrategyGrid, StrategyRandom, StrategyHillClimb,
		StrategySurrogateHill, StrategyEI, StrategyScreen}
}

// Strategy proposes candidate indexes to evaluate. The engine calls
// Next repeatedly: each call sees the full ordered history of
// evaluations so far and the remaining evaluation budget, and returns
// the next batch of point indexes (already-evaluated proposals are
// served from the history without consuming budget). An empty batch
// ends the search.
//
// Determinism contract: a strategy must derive its choices only from
// its seed and the observed history — never from wall-clock, map
// iteration order or completion order — so that a resumed run replays
// the exact proposal sequence of an uninterrupted one.
type Strategy interface {
	// Next proposes the next batch of candidate indexes.
	Next(s Space, hist []HistoryEntry, remaining int) []int
}

// HistoryEntry is one observed evaluation, in observation order.
type HistoryEntry struct {
	Index int
	Point Point
	Eval  Eval
}

// NewStrategy builds a named strategy seeded for deterministic replay.
func NewStrategy(name string, seed int64) (Strategy, error) {
	switch name {
	case StrategyGrid:
		return gridStrategy{}, nil
	case StrategyRandom:
		return &randomStrategy{seed: seed}, nil
	case StrategyHillClimb:
		return &hillClimbStrategy{seed: seed}, nil
	case StrategySurrogateHill:
		return &surrogateHillStrategy{hillClimbStrategy: hillClimbStrategy{seed: seed}}, nil
	case StrategyEI:
		return &eiStrategy{seed: seed}, nil
	case StrategyScreen:
		return &screenStrategy{seed: seed}, nil
	default:
		return nil, fmt.Errorf("dse: unknown strategy %q (have %s)", name, strings.Join(Strategies(), ", "))
	}
}

// --- exhaustive grid --------------------------------------------------------

// defaultCheckpointEvery is the engine's strategy-batch cap when
// Config.CheckpointEvery is zero: large enough to keep every worker
// busy, small enough that a killed run loses at most this many
// evaluations to the unjournaled tail.
const defaultCheckpointEvery = 64

// gridStrategy enumerates the space in index order — the exhaustive
// sweep the paper's sensitivity studies replay by hand. Its history is
// exactly the indexes it has proposed, so the next index is its length.
type gridStrategy struct{}

func (gridStrategy) Next(s Space, hist []HistoryEntry, remaining int) []int {
	next := len(hist)
	n := s.Size() - next
	if n > remaining {
		n = remaining
	}
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = next + i
	}
	return out
}

// --- seeded random sampling -------------------------------------------------

// randomStrategy samples the space without replacement in a seeded
// random order — the cheap baseline for spaces too big to sweep.
type randomStrategy struct {
	seed   int64
	perm   []int
	cursor int
}

func (r *randomStrategy) Next(s Space, hist []HistoryEntry, remaining int) []int {
	if r.perm == nil {
		r.perm = rand.New(rand.NewSource(r.seed)).Perm(s.Size())
	}
	if remaining <= 0 {
		return nil
	}
	// Never re-propose an already-evaluated index: history entries —
	// whether from this run's own proposals or seeded externally — are
	// skipped, so every proposal spends budget on a fresh simulation.
	// In an engine-driven run the history is exactly the permutation
	// prefix already consumed, so the proposal sequence is unchanged.
	evaluated := make(map[int]bool, len(hist))
	for _, h := range hist {
		evaluated[h.Index] = true
	}
	var out []int
	for len(out) < remaining && r.cursor < len(r.perm) {
		i := r.perm[r.cursor]
		r.cursor++
		if !evaluated[i] {
			out = append(out, i)
		}
	}
	return out
}

// --- adaptive hill-climbing -------------------------------------------------

// hillClimbSeeds is how many random starting points the climber plants.
const hillClimbSeeds = 4

// hillClimbStrategy is the adaptive search: plant a few seeded random
// starts, then repeatedly propose the unvisited axis-neighbors of the
// best candidate seen so far (best by perf-per-watt, the scalar that
// folds performance and cooling-inclusive power into one number). When
// the neighborhood is exhausted it restarts from a fresh random point,
// so with enough budget it keeps exploring instead of parking on a
// local optimum.
type hillClimbStrategy struct {
	seed    int64
	rng     *rand.Rand
	visited map[int]bool // proposed at least once
}

// best returns the history index of the best candidate by
// perf-per-watt, ties broken toward the lowest point index so replay
// does not depend on observation order.
func best(hist []HistoryEntry) (HistoryEntry, bool) {
	if len(hist) == 0 {
		return HistoryEntry{}, false
	}
	bi := hist[0]
	for _, e := range hist[1:] {
		v, bv := e.Eval.PerfPerWatt, bi.Eval.PerfPerWatt
		if v > bv || (v == bv && e.Index < bi.Index) {
			bi = e
		}
	}
	return bi, true
}

func (h *hillClimbStrategy) propose(batch []int, idx int) []int {
	if !h.visited[idx] {
		h.visited[idx] = true
		batch = append(batch, idx)
	}
	return batch
}

// randomUnvisited draws the next unvisited index from the seeded rng;
// ok=false once the space is exhausted.
func (h *hillClimbStrategy) randomUnvisited(size int) (int, bool) {
	if len(h.visited) >= size {
		return 0, false
	}
	for {
		if i := h.rng.Intn(size); !h.visited[i] {
			return i, true
		}
	}
}

func (h *hillClimbStrategy) Next(s Space, hist []HistoryEntry, remaining int) []int {
	if remaining <= 0 {
		return nil
	}
	if h.rng == nil {
		h.rng = rand.New(rand.NewSource(h.seed))
		h.visited = make(map[int]bool)
	}
	// Never re-propose an already-evaluated index: mark the history —
	// including entries the climber did not itself propose — as visited
	// before choosing. An engine-driven run only ever has its own
	// proposals in the history, so its sequence is unchanged.
	for _, e := range hist {
		h.visited[e.Index] = true
	}
	var batch []int
	// Cold start: plant the seeds.
	if len(hist) == 0 && len(h.visited) == 0 {
		n := hillClimbSeeds
		if n > remaining {
			n = remaining
		}
		if n > s.Size() {
			n = s.Size()
		}
		for len(batch) < n {
			i, ok := h.randomUnvisited(s.Size())
			if !ok {
				break
			}
			batch = h.propose(batch, i)
		}
		return batch
	}
	// Climb: unvisited neighbors of the best point so far.
	if b, ok := best(hist); ok {
		for _, nb := range s.Neighbors(b.Index) {
			if len(batch) >= remaining {
				break
			}
			batch = h.propose(batch, nb)
		}
	}
	if len(batch) > 0 {
		sort.Ints(batch)
		return batch
	}
	// Stuck: restart from one fresh random point.
	if i, ok := h.randomUnvisited(s.Size()); ok {
		return h.propose(batch, i)
	}
	return nil
}
