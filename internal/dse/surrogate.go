package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"cryowire/internal/surrogate"
)

// The surrogate-accelerated strategies: every completed DSE run leaves
// a JSON-lines journal of (point → perf, watts, energy) evaluations,
// and these strategies fit a cheap k-NN/inverse-distance interpolator
// (internal/surrogate) over one or more such journals — plus the
// in-run history — to decide what is worth simulating. Predictions
// steer proposals only; they never enter a Result or a journal line,
// so everything a search reports remains sim-verified.
const (
	// StrategySurrogateHill warm-starts the adaptive hill-climb from
	// the surrogate's predicted optima instead of random points, and
	// restarts from the best predicted unvisited point when stuck.
	StrategySurrogateHill = "surrogate-hillclimb"
	// StrategyEI picks points by expected improvement over the
	// predicted distance to the observed Pareto frontier, trading off
	// predicted gain against model confidence.
	StrategyEI = "ei"
	// StrategyScreen is screen-then-verify: rank the whole space by
	// predicted Pareto proximity, then simulate only the predicted
	// frontier band (plus an uncertainty margin) and stop. Every
	// reported frontier point is sim-verified.
	StrategyScreen = "screen"
)

// isSurrogateStrategy reports whether the named strategy consumes
// priors — Config.Validate's gate for Config.Priors.
func isSurrogateStrategy(name string) bool {
	switch name {
	case StrategySurrogateHill, StrategyEI, StrategyScreen:
		return true
	}
	return false
}

// DefaultScreenMargin is the screen strategy's Pareto-band width when
// Config.ScreenMargin is zero: how far (in normalized objective units)
// a predicted point may sit behind the predicted frontier and still be
// simulated. On the quick space it keeps the verified band at a
// quarter of the grid.
const DefaultScreenMargin = 0.1

// screenConfidenceFloor: a point whose prediction rests on no nearby
// sample is simulated regardless of its predicted proximity — the
// uncertainty half of "predicted Pareto band plus an uncertainty
// margin".
const screenConfidenceFloor = 0.25

// screenBootstrapTarget sizes the deterministic stride sample a
// prior-less screen run simulates first so it has something to fit.
const screenBootstrapTarget = 16

// surrogateK is the neighborhood size of the fitted models.
const surrogateK = 4

// eiBatch bounds proposals per EI refit, keeping the strategy adaptive
// (each batch of evidence reshapes the next ranking).
const eiBatch = 8

// eiBootstrap is the seeded random plant of a prior-less EI run.
const eiBootstrap = 4

// eiExplore weighs the exploration term: a point the model knows
// nothing about scores as if it stood eiExplore normalized units
// beyond the frontier.
const eiExplore = 0.5

// surrogateAware is implemented by strategies that learn from priors;
// the engine calls initSurrogate once, before the first Next.
type surrogateAware interface {
	initSurrogate(priors []JournalEntry, margin float64)
}

// --- the shared model ------------------------------------------------------

// surrogateModel owns the fitted interpolator shared by the three
// strategies: samples are the union of the prior journal entries and
// the in-run history, coordinates are Space.normCoords, and the target
// vector is (performance, device watts, total watts, energy).
type surrogateModel struct {
	priors []JournalEntry
	model  *surrogate.Model
	fitLen int // len(priors)+len(hist) at the last fit; -1 = never fitted
}

func (sm *surrogateModel) init(priors []JournalEntry) {
	sm.priors = priors
	sm.fitLen = -1
}

// fit (re)fits the model over priors + hist, reusing the last fit when
// no new evidence arrived. Returns false when there is nothing to fit.
// A strategy driven without initSurrogate fits over its history alone.
func (sm *surrogateModel) fit(s Space, hist []HistoryEntry) bool {
	n := len(sm.priors) + len(hist)
	if n == 0 {
		return false
	}
	if sm.model != nil && sm.fitLen == n {
		return true
	}
	// Union by index, history winning (evaluation is pure, so a shared
	// index carries equal values either way).
	byIndex := make(map[int]Eval, n)
	for _, e := range sm.priors {
		byIndex[e.Index] = e.Eval
	}
	for _, h := range hist {
		byIndex[h.Index] = h.Eval
	}
	idxs := make([]int, 0, len(byIndex))
	for i := range byIndex {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	samples := make([]surrogate.Sample, len(idxs))
	for k, i := range idxs {
		e := byIndex[i]
		samples[k] = surrogate.Sample{
			Coords: s.normCoords(i),
			Values: []float64{e.Performance, e.DevicePower, e.TotalPower, e.Energy},
		}
	}
	m, err := surrogate.Fit(samples, surrogateK)
	if err != nil {
		// Unreachable for journal-sourced samples (finite, key-checked,
		// consistent); fail safe by predicting nothing.
		return false
	}
	sm.model, sm.fitLen = m, n
	return true
}

// predict returns the interpolated Eval at index i plus the model's
// confidence. Only the four fitted metrics (and the derived
// perf-per-watt) are populated; frequency and IPC stay zero, which is
// fine because predictions only ever rank proposals.
func (sm *surrogateModel) predict(s Space, i int) (Eval, float64) {
	vals, conf, err := sm.model.Predict(s.normCoords(i))
	if err != nil {
		return Eval{}, 0
	}
	e := Eval{Performance: vals[0], DevicePower: vals[1], TotalPower: vals[2], Energy: vals[3]}
	if e.Performance > 0 && e.TotalPower > 0 {
		e.PerfPerWatt = e.Performance / e.TotalPower
	}
	return e, conf
}

// observed returns the union of prior and history evals — the
// sim-verified facts the objective normalization and the observed
// frontier are computed over — in ascending index order.
func (sm *surrogateModel) observed(hist []HistoryEntry) []Eval {
	byIndex := make(map[int]Eval, len(sm.priors)+len(hist))
	for _, e := range sm.priors {
		byIndex[e.Index] = e.Eval
	}
	for _, h := range hist {
		byIndex[h.Index] = h.Eval
	}
	idxs := make([]int, 0, len(byIndex))
	for i := range byIndex {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]Eval, len(idxs))
	for k, i := range idxs {
		out[k] = byIndex[i]
	}
	return out
}

// --- objective normalization and Pareto proximity --------------------------

// objNorm rescales objective values onto the unit cube, oriented so
// larger is always better — the shared yardstick of the EI score and
// the screen band.
type objNorm struct {
	objs   []Objective
	lo, hi []float64
}

// newObjNorm fits the normalization over a reference eval set. A
// degenerate axis (all values equal) maps to 0.5 so it neither helps
// nor hurts any point.
func newObjNorm(objs []Objective, ref []Eval) objNorm {
	n := objNorm{objs: objs, lo: make([]float64, len(objs)), hi: make([]float64, len(objs))}
	for j, o := range objs {
		for k, e := range ref {
			v := o.Value(e)
			if !o.Maximize {
				v = -v
			}
			if k == 0 || v < n.lo[j] {
				n.lo[j] = v
			}
			if k == 0 || v > n.hi[j] {
				n.hi[j] = v
			}
		}
	}
	return n
}

// vec maps one eval onto the normalized, maximize-oriented cube.
func (n objNorm) vec(e Eval) []float64 {
	out := make([]float64, len(n.objs))
	for j, o := range n.objs {
		v := o.Value(e)
		if !o.Maximize {
			v = -v
		}
		if n.hi[j] > n.lo[j] {
			out[j] = (v - n.lo[j]) / (n.hi[j] - n.lo[j])
		} else {
			out[j] = 0.5
		}
	}
	return out
}

// nonDominated filters normalized vectors down to the frontier
// (maximize orientation), preserving input order.
func nonDominated(vecs [][]float64) [][]float64 {
	var front [][]float64
	for i, v := range vecs {
		dom := false
		for k, o := range vecs {
			if i != k && vecDominates(o, v) {
				dom = true
				break
			}
		}
		if !dom {
			front = append(front, v)
		}
	}
	return front
}

func vecDominates(a, b []float64) bool {
	strict := false
	for j := range a {
		if a[j] < b[j] {
			return false
		}
		if a[j] > b[j] {
			strict = true
		}
	}
	return strict
}

// paretoProx measures how far a normalized point sits behind a
// frontier: min over frontier members of the worst per-objective
// shortfall. Zero or negative means on or beyond the frontier; the
// screen band is prox <= margin.
func paretoProx(p []float64, front [][]float64) float64 {
	if len(front) == 0 || len(p) == 0 {
		return 0
	}
	best := 0.0
	for k, f := range front {
		worst := f[0] - p[0]
		for j := 1; j < len(f); j++ {
			if d := f[j] - p[j]; d > worst {
				worst = d
			}
		}
		if k == 0 || worst < best {
			best = worst
		}
	}
	return best
}

// --- surrogate-guided hill climb -------------------------------------------

// surrogateHillStrategy is the adaptive hill-climb warm-started by the
// surrogate: the cold-start seeds are the predicted perf-per-watt
// optima instead of random points, and a stuck climb restarts from the
// best predicted unvisited point. With no priors and no history it
// degrades to exactly the seeded random plant of plain hillclimb.
type surrogateHillStrategy struct {
	hillClimbStrategy
	sur surrogateModel
}

func (h *surrogateHillStrategy) initSurrogate(priors []JournalEntry, _ float64) {
	h.sur.init(priors)
}

// topPredicted ranks unvisited points by predicted perf-per-watt
// (ties toward the lowest index) and proposes the best n.
func (h *surrogateHillStrategy) topPredicted(s Space, n int) []int {
	type scored struct {
		idx   int
		value float64
	}
	var all []scored
	for i := 0; i < s.Size(); i++ {
		if h.visited[i] {
			continue
		}
		e, _ := h.sur.predict(s, i)
		all = append(all, scored{i, e.PerfPerWatt})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].value != all[b].value {
			return all[a].value > all[b].value
		}
		return all[a].idx < all[b].idx
	})
	var batch []int
	for _, c := range all {
		if len(batch) >= n {
			break
		}
		batch = h.propose(batch, c.idx)
	}
	return batch
}

func (h *surrogateHillStrategy) Next(s Space, hist []HistoryEntry, remaining int) []int {
	if remaining <= 0 {
		return nil
	}
	if h.rng == nil {
		h.rng = rand.New(rand.NewSource(h.seed))
		h.visited = make(map[int]bool)
	}
	// Dedupe against history: whatever is already evaluated — however
	// it got there — is never proposed again.
	for _, e := range hist {
		h.visited[e.Index] = true
	}
	// Cold start: warm-start from the predicted optima when a prior
	// gives the model something to say; otherwise plant random seeds
	// exactly like plain hillclimb.
	if len(hist) == 0 && len(h.visited) == 0 {
		if h.sur.fit(s, hist) {
			n := hillClimbSeeds
			if n > remaining {
				n = remaining
			}
			if batch := h.topPredicted(s, n); len(batch) > 0 {
				return batch
			}
		}
		n := hillClimbSeeds
		if n > remaining {
			n = remaining
		}
		if n > s.Size() {
			n = s.Size()
		}
		var batch []int
		for len(batch) < n {
			i, ok := h.randomUnvisited(s.Size())
			if !ok {
				break
			}
			batch = h.propose(batch, i)
		}
		return batch
	}
	// Climb: unvisited neighbors of the best observed point.
	var batch []int
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
	// Stuck: restart from the best predicted unvisited point — the
	// surrogate's replacement for hillclimb's random restart.
	if h.sur.fit(s, hist) {
		if batch := h.topPredicted(s, 1); len(batch) > 0 {
			return batch
		}
		return nil
	}
	if i, ok := h.randomUnvisited(s.Size()); ok {
		return h.propose(nil, i)
	}
	return nil
}

// --- expected improvement ---------------------------------------------------

// eiStrategy proposes the points with the best expected improvement
// over the predicted Pareto distance: confidence-weighted predicted
// gain beyond the observed frontier, plus an exploration bonus where
// the model is uncertain. Proposals come in small batches so each
// round of simulated evidence refits the model before the next pick.
type eiStrategy struct {
	seed    int64
	rng     *rand.Rand
	visited map[int]bool
	sur     surrogateModel
}

func (e *eiStrategy) initSurrogate(priors []JournalEntry, _ float64) {
	e.sur.init(priors)
}

func (e *eiStrategy) Next(s Space, hist []HistoryEntry, remaining int) []int {
	if remaining <= 0 {
		return nil
	}
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
		e.visited = make(map[int]bool)
	}
	for _, h := range hist {
		e.visited[h.Index] = true
	}
	if !e.sur.fit(s, hist) {
		// No evidence at all: plant a seeded random bootstrap so the
		// next call has a model.
		n := eiBootstrap
		if n > remaining {
			n = remaining
		}
		var batch []int
		for len(batch) < n && len(e.visited) < s.Size() {
			if i := e.rng.Intn(s.Size()); !e.visited[i] {
				e.visited[i] = true
				batch = append(batch, i)
			}
		}
		return batch
	}
	obs := e.sur.observed(hist)
	norm := newObjNorm(DefaultObjectives(), obs)
	obsVecs := make([][]float64, len(obs))
	for k, ev := range obs {
		obsVecs[k] = norm.vec(ev)
	}
	front := nonDominated(obsVecs)
	type scored struct {
		idx   int
		score float64
	}
	var all []scored
	for i := 0; i < s.Size(); i++ {
		if e.visited[i] {
			continue
		}
		pe, conf := e.sur.predict(s, i)
		prox := paretoProx(norm.vec(pe), front)
		all = append(all, scored{i, conf*(-prox) + (1-conf)*eiExplore})
	}
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		return all[a].idx < all[b].idx
	})
	n := eiBatch
	if n > remaining {
		n = remaining
	}
	var batch []int
	for _, c := range all {
		if len(batch) >= n {
			break
		}
		e.visited[c.idx] = true
		batch = append(batch, c.idx)
	}
	return batch
}

// --- screen-then-verify -----------------------------------------------------

// screenStrategy ranks the entire space by predicted Pareto proximity
// and proposes only the predicted frontier band — everything else is
// skipped, which is where the simulate savings come from. Proposed
// points are simulated like any other candidate, so the reported
// frontier is built purely from verified evaluations; skipped points
// simply never enter the Result. Without priors it first simulates a
// deterministic stride sample of the space to have something to fit.
type screenStrategy struct {
	seed   int64
	margin float64
	sur    surrogateModel

	phase int // screenInit -> screenBoot? -> screenVerify -> done (empty queue)
	queue []int
}

const (
	screenInit = iota
	screenBoot
	screenVerify
)

func (sc *screenStrategy) initSurrogate(priors []JournalEntry, margin float64) {
	sc.sur.init(priors)
	sc.margin = margin
}

// resolvedMargin is the band width actually used (the default applies
// when the config left it zero).
func (sc *screenStrategy) resolvedMargin() float64 {
	if sc.margin > 0 {
		return sc.margin
	}
	return DefaultScreenMargin
}

// buildPlan computes the verification queue: predict every
// not-yet-evaluated point, take the predicted frontier of the whole
// cloud (evaluated points enter as their exact values), and keep the
// points within the margin of it — plus any point the model has no
// confident opinion about. The rest are recorded as skipped.
func (sc *screenStrategy) buildPlan(s Space, hist []HistoryEntry) {
	evaluated := make(map[int]bool, len(hist))
	for _, h := range hist {
		evaluated[h.Index] = true
	}
	size := s.Size()
	evals := make([]Eval, size)
	confs := make([]float64, size)
	for i := 0; i < size; i++ {
		evals[i], confs[i] = sc.sur.predict(s, i)
	}
	norm := newObjNorm(DefaultObjectives(), evals)
	vecs := make([][]float64, size)
	for i := range evals {
		vecs[i] = norm.vec(evals[i])
	}
	front := nonDominated(vecs)
	margin := sc.resolvedMargin()
	skipped := 0
	for i := 0; i < size; i++ {
		if evaluated[i] {
			continue
		}
		if paretoProx(vecs[i], front) <= margin || confs[i] < screenConfidenceFloor {
			sc.queue = append(sc.queue, i)
		} else {
			skipped++
		}
	}
	surrogate.AddSkipped(skipped)
	sc.phase = screenVerify
}

// bootstrapPlan is the prior-less fallback: a deterministic stride
// sample of about screenBootstrapTarget points (always including the
// last index so the sample spans the space).
func (sc *screenStrategy) bootstrapPlan(s Space) {
	size := s.Size()
	stride := size / screenBootstrapTarget
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < size; i += stride {
		sc.queue = append(sc.queue, i)
	}
	if last := size - 1; len(sc.queue) > 0 && sc.queue[len(sc.queue)-1] != last {
		sc.queue = append(sc.queue, last)
	}
	sc.phase = screenBoot
}

func (sc *screenStrategy) Next(s Space, hist []HistoryEntry, remaining int) []int {
	if remaining <= 0 {
		return nil
	}
	if sc.phase == screenInit {
		if sc.sur.fit(s, hist) {
			sc.buildPlan(s, hist)
		} else {
			sc.bootstrapPlan(s)
		}
	}
	if len(sc.queue) == 0 && sc.phase == screenBoot {
		// Bootstrap simulated: now the history is the prior.
		if !sc.sur.fit(s, hist) {
			return nil
		}
		sc.buildPlan(s, hist)
	}
	n := len(sc.queue)
	if n > remaining {
		n = remaining
	}
	if n == 0 {
		return nil
	}
	batch := sc.queue[:n:n]
	sc.queue = sc.queue[n:]
	return batch
}

// --- priors and the strategy journal key ------------------------------------

// loadPriors reads, key-checks and merges the prior journals of a
// surrogate search: every path in cfg.Priors (a named prior that does
// not exist is an error — unlike a resumed journal, it cannot mean "no
// progress yet").
func loadPriors(cfg Config) ([]JournalEntry, error) {
	sets := make([][]JournalEntry, 0, len(cfg.Priors))
	for _, path := range cfg.Priors {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("dse: prior journal %s: %w", path, err)
		}
		entries, err := ParseJournal(data, cfg.Space, cfg.Sim)
		if err != nil {
			return nil, fmt.Errorf("dse: prior journal %s: %w", path, err)
		}
		sets = append(sets, entries)
	}
	merged, err := MergeEntries(sets...)
	if err != nil {
		return nil, err
	}
	return merged, nil
}

// surrogateStrategyKey fingerprints everything a surrogate strategy's
// proposal sequence depends on beyond the (space, sim config) pair the
// base journal key covers: the strategy, its seed, the resolved screen
// margin and the merged prior content. It extends — never replaces —
// the journal key, so a resumed surrogate run that changed its priors
// or knobs is rejected instead of silently diverging from the
// uninterrupted run it promises to reproduce. Non-surrogate strategies
// keep an empty key, which keeps grid/random/hillclimb journal headers
// byte-identical to every earlier release.
func surrogateStrategyKey(cfg Config, priors []JournalEntry) (string, error) {
	margin := 0.0
	if cfg.Strategy == StrategyScreen {
		margin = cfg.ScreenMargin
		if margin == 0 {
			margin = DefaultScreenMargin
		}
	}
	pb, err := json.Marshal(priors) // priors are merged and index-sorted: canonical
	if err != nil {
		return "", err
	}
	psum := sha256.Sum256(pb)
	canon := fmt.Sprintf("strategy=%s|seed=%d|margin=%g|priors=%s",
		cfg.Strategy, cfg.Seed, margin, hex.EncodeToString(psum[:]))
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:]), nil
}

// PriorFingerprint hashes the raw bytes of the named prior journal
// files (a missing file hashes as absent rather than erroring). The
// server folds this into its response-cache key so a prior file that
// changed on disk can never serve a stale cached search.
func PriorFingerprint(paths []string) string {
	h := sha256.New()
	for _, p := range paths {
		h.Write([]byte(p))
		h.Write([]byte{0})
		data, err := os.ReadFile(p)
		if err != nil {
			h.Write([]byte("absent"))
		} else {
			h.Write(data)
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
