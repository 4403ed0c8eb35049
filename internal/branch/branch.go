// Package branch models the frontend branch-prediction structure the
// paper's baseline (BOOM) and CryoSP use: an overriding predictor
// (§4.1) pairing a fast 1-cycle BTB/bimodal predictor with a slower,
// more accurate main predictor (GShare). When the two disagree, the
// branch checker overrides the fast prediction and pays a small
// frontend bubble; real mispredictions pay the full pipeline refill.
//
// CryoSP's frontend superpipelining adds a stage to the main predictor
// (splitting GShare's hash/decode, §4.4) and lengthens the refill, so
// this package is what turns "3 extra frontend stages" into the ≈4 %
// IPC cost the paper reports — derived from a real predictor model
// running a synthetic branch stream, not assumed.
package branch

import (
	"math/rand"
)

// BTB is a direct-mapped branch target buffer with partial tags.
type BTB struct {
	entries []btbEntry
	mask    uint64
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// NewBTB builds a power-of-two-entry BTB.
func NewBTB(entries int) *BTB {
	n := 1
	for n < entries {
		n <<= 1
	}
	return &BTB{entries: make([]btbEntry, n), mask: uint64(n - 1)}
}

// Lookup returns the stored target for a PC.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	e := b.entries[pc&b.mask]
	if e.valid && e.tag == pc>>16 {
		return e.target, true
	}
	return 0, false
}

// Update installs a taken branch's target.
func (b *BTB) Update(pc, target uint64) {
	b.entries[pc&b.mask] = btbEntry{tag: pc >> 16, target: target, valid: true}
}

// Bimodal is the fast 1-cycle predictor living beside the BTB: a table
// of 2-bit saturating counters indexed by PC.
type Bimodal struct {
	counters []uint8
	mask     uint64
}

// NewBimodal builds a power-of-two-entry bimodal predictor.
func NewBimodal(entries int) *Bimodal {
	n := 1
	for n < entries {
		n <<= 1
	}
	c := make([]uint8, n)
	for i := range c {
		c[i] = 2 // weakly taken
	}
	return &Bimodal{counters: c, mask: uint64(n - 1)}
}

// Predict returns the taken/not-taken guess for a PC.
func (p *Bimodal) Predict(pc uint64) bool {
	return p.counters[pc&p.mask] >= 2
}

// Update trains the counter with the actual outcome.
func (p *Bimodal) Update(pc uint64, taken bool) {
	c := &p.counters[pc&p.mask]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// GShare is the accurate main predictor: global history XOR PC indexes
// a 2-bit counter table. Latency is 2 cycles in the baseline frontend
// and 3 when superpipelined (hash and decode split across a flip-flop).
type GShare struct {
	counters []uint8
	mask     uint64
	history  uint64
	histBits uint
	// LatencyCycles is how long the prediction takes to arrive.
	LatencyCycles int
}

// NewGShare builds the predictor with the given table size and history
// length.
func NewGShare(entries int, histBits uint, latency int) *GShare {
	n := 1
	for n < entries {
		n <<= 1
	}
	c := make([]uint8, n)
	for i := range c {
		c[i] = 2
	}
	return &GShare{counters: c, mask: uint64(n - 1), histBits: histBits, LatencyCycles: latency}
}

// index folds PC and history.
func (g *GShare) index(pc uint64) uint64 {
	return (pc ^ g.history) & g.mask
}

// Predict returns the taken/not-taken guess.
func (g *GShare) Predict(pc uint64) bool {
	return g.counters[g.index(pc)] >= 2
}

// Update trains the counter and shifts the global history.
func (g *GShare) Update(pc uint64, taken bool) {
	c := &g.counters[g.index(pc)]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= (1 << g.histBits) - 1
}

// Overriding is the full frontend prediction structure.
type Overriding struct {
	BTB  *BTB
	Fast *Bimodal
	Main *GShare
	// OverrideBubble is the frontend refill when the main predictor
	// overrides the fast one (its latency in cycles).
	OverrideBubble int
	// MispredictPenalty is the full pipeline refill on a real miss.
	MispredictPenalty int
}

// NewOverriding assembles the baseline 14-deep structure (2-cycle main
// predictor, 12-cycle refill).
func NewOverriding(mispredictPenalty int) *Overriding {
	return &Overriding{
		BTB:               NewBTB(512),
		Fast:              NewBimodal(2048),
		Main:              NewGShare(32768, 8, 2),
		OverrideBubble:    2,
		MispredictPenalty: mispredictPenalty,
	}
}

// Superpipeline returns the CryoSP variant: the main predictor takes an
// extra cycle (GShare hash/decode split), the branch check moves two
// stages later, and the refill grows by the three added stages (§4.4).
func (o *Overriding) Superpipeline() *Overriding {
	return &Overriding{
		BTB:               NewBTB(512),
		Fast:              NewBimodal(2048),
		Main:              NewGShare(32768, 8, o.Main.LatencyCycles+1),
		OverrideBubble:    o.OverrideBubble + 1,
		MispredictPenalty: o.MispredictPenalty + 3,
	}
}

// Outcome accumulates one run's prediction events.
type Outcome struct {
	Branches    int64
	Mispredicts int64
	Overrides   int64
	// BubbleCycles is the total frontend cycles lost to overrides and
	// refills.
	BubbleCycles int64
}

// PenaltyCPI converts the bubbles into a CPI adder at the given branch
// density (branches per instruction).
func (r Outcome) PenaltyCPI(branchesPerInstr float64) float64 {
	if r.Branches == 0 {
		return 0
	}
	perBranch := float64(r.BubbleCycles) / float64(r.Branches)
	return perBranch * branchesPerInstr
}

// See processes one dynamic branch through the overriding structure.
func (o *Overriding) See(pc uint64, taken bool, target uint64) (mispredict, override bool) {
	fastPred := o.Fast.Predict(pc)
	_, btbHit := o.BTB.Lookup(pc)
	fastTaken := fastPred && btbHit
	mainPred := o.Main.Predict(pc)
	override = mainPred != fastTaken
	final := mainPred
	mispredict = final != taken
	o.Fast.Update(pc, taken)
	o.Main.Update(pc, taken)
	if taken {
		o.BTB.Update(pc, target)
	}
	return mispredict, override
}

// Run drives a branch stream through the structure.
func (o *Overriding) Run(st *Stream, n int) Outcome {
	var out Outcome
	for i := 0; i < n; i++ {
		pc, taken, target := st.Next()
		mis, ovr := o.See(pc, taken, target)
		out.Branches++
		if ovr {
			out.Overrides++
			out.BubbleCycles += int64(o.OverrideBubble)
		}
		if mis {
			out.Mispredicts++
			out.BubbleCycles += int64(o.MispredictPenalty)
		}
	}
	return out
}

// Stream generates a synthetic dynamic branch trace: a working set of
// static branches, most strongly biased, some loop-like (periodic), a
// few history-correlated, and a noisy remainder — the canonical mix
// behind SPEC/PARSEC branch behaviour.
type Stream struct {
	rng      *rand.Rand
	branches []streamBranch
	history  uint64
}

type streamBranch struct {
	pc     uint64
	kind   int // 0 biased, 1 loop, 2 correlated, 3 noisy
	bias   float64
	period int
	count  int
}

// NewStream builds a trace generator with the canonical branch mix:
// 60 % strongly biased, 25 % loop back-edges, 10 % history-correlated,
// 5 % noisy.
func NewStream(seed int64, statics int) *Stream {
	return NewStreamMix(seed, statics, [4]float64{0.60, 0.25, 0.10, 0.05})
}

// NewStreamMix builds a trace generator with an explicit kind mix
// (biased, loop, correlated, noisy fractions).
func NewStreamMix(seed int64, statics int, mix [4]float64) *Stream {
	rng := rand.New(rand.NewSource(seed))
	s := &Stream{rng: rng}
	for i := 0; i < statics; i++ {
		b := streamBranch{pc: uint64(0x400000 + i*16)}
		switch r := rng.Float64(); {
		case r < mix[0]:
			b.kind = 0
			b.bias = 0.88 + 0.12*rng.Float64()
		case r < mix[0]+mix[1]:
			b.kind = 1
			b.period = 8 + rng.Intn(56)
		case r < mix[0]+mix[1]+mix[2]:
			b.kind = 2
		default:
			b.kind = 3
			b.bias = 0.45 + 0.15*rng.Float64()
		}
		s.branches = append(s.branches, b)
	}
	return s
}

// Next emits one dynamic branch.
func (s *Stream) Next() (pc uint64, taken bool, target uint64) {
	b := &s.branches[s.rng.Intn(len(s.branches))]
	switch b.kind {
	case 0, 3:
		taken = s.rng.Float64() < b.bias
	case 1:
		b.count++
		taken = b.count%b.period != 0 // loop back-edge: taken until exit
	case 2:
		// Correlated with the last two global outcomes.
		taken = (s.history&3 == 3) || (s.history&3 == 0)
	}
	s.history = s.history<<1 | boolBit(taken)
	return b.pc, taken, b.pc + 64
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// SuperpipelineIPCCost runs the same stream through the baseline and
// superpipelined frontends and returns the relative IPC loss at the
// given branch density and base CPI — the quantity behind the paper's
// "only 4.2 % IPC" claim for CryoSP's three extra stages.
func SuperpipelineIPCCost(seed int64, n int, branchesPerInstr, baseCPI float64) float64 {
	base := NewOverriding(12)
	super := base.Superpipeline()
	ob := base.Run(NewStream(seed, 400), n)
	os := super.Run(NewStream(seed, 400), n)
	cpiBase := baseCPI + ob.PenaltyCPI(branchesPerInstr)
	cpiSuper := baseCPI + os.PenaltyCPI(branchesPerInstr)
	return 1 - cpiBase/cpiSuper
}
