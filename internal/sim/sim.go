// Package sim is the full-system timing simulator — the repository's
// Gem5 substitute (DESIGN.md, substitution #4). It steps a 64-core
// system at NoC-cycle granularity: statistical cores commit
// instructions and emit L2-miss transactions; a real MESI protocol
// (directory or snooping, package coherence) expands each miss into
// messages; the messages travel as real packets on the cycle-level NoC
// (package noc); L3 slices and DRAM add service time; barriers
// serialize on a contended lock line exactly the way barrier spinning
// does on real machines. IPC, CPI stacks (Fig 3) and system-level
// performance (Figs 17/23/24) all emerge from the simulation.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"cryowire/internal/coherence"
	"cryowire/internal/dram"
	"cryowire/internal/fault"
	"cryowire/internal/mem"
	"cryowire/internal/noc"
	"cryowire/internal/phys"
	"cryowire/internal/pipeline"
	"cryowire/internal/workload"
)

// NetKind selects the interconnect of a system design.
type NetKind int

// Interconnect kinds of Table 4 plus the ideal reference of Fig 17.
const (
	Mesh NetKind = iota
	SharedBus
	CryoBus
	CryoBus2Way
	Ideal
)

// String implements fmt.Stringer.
func (k NetKind) String() string {
	switch k {
	case Mesh:
		return "Mesh"
	case SharedBus:
		return "Shared bus"
	case CryoBus:
		return "CryoBus"
	case CryoBus2Way:
		return "CryoBus 2-way"
	case Ideal:
		return "Ideal NoC"
	default:
		return fmt.Sprintf("NetKind(%d)", int(k))
	}
}

// Snooping reports whether the interconnect runs the snoop protocol
// (every bus does; the mesh designs are directory-based, Table 4).
func (k NetKind) Snooping() bool {
	switch k {
	case SharedBus, CryoBus, CryoBus2Way, Ideal:
		return true
	default:
		return false
	}
}

// PrefetchConfig models the aggressive stride prefetcher of Fig 24.
type PrefetchConfig struct {
	// Enabled turns the prefetcher on.
	Enabled bool
	// Degree is the number of prefetch transactions issued per demand
	// miss (the paper's inefficient prefetcher fires even on hits, so
	// the traffic multiplier is large).
	Degree int
	// Coverage is the fraction of demand misses the prefetcher converts
	// into hits.
	Coverage float64
}

// Design is a complete system configuration (a Table 4 row).
type Design struct {
	Name     string
	Core     pipeline.CoreSpec
	Net      NetKind
	NoC      noc.Timing
	Memory   mem.Hierarchy
	Cores    int
	Prefetch PrefetchConfig
}

// Validate checks the design.
func (d Design) Validate() error {
	if d.Cores < 2 {
		return fmt.Errorf("sim: design %s needs ≥2 cores", d.Name)
	}
	if d.NoC.FreqGHz <= 0 || d.NoC.HopsPerCycle < 1 {
		return fmt.Errorf("sim: design %s has invalid NoC timing %+v", d.Name, d.NoC)
	}
	return d.Core.Validate()
}

// StallBucket labels where a cycle went (the Fig 3 CPI-stack buckets).
type StallBucket int

// CPI-stack buckets.
const (
	BucketBase StallBucket = iota // issue-limited + branch + L2-hit time
	BucketNoC                     // waiting on coherence messages in flight
	BucketL3                      // waiting on L3 array service
	BucketDRAM                    // waiting on DRAM
	BucketSync                    // barrier arrival/release
	bucketCount
)

// String implements fmt.Stringer.
func (b StallBucket) String() string {
	switch b {
	case BucketBase:
		return "base"
	case BucketNoC:
		return "noc"
	case BucketL3:
		return "l3"
	case BucketDRAM:
		return "dram"
	case BucketSync:
		return "sync"
	default:
		return fmt.Sprintf("bucket(%d)", int(b))
	}
}

// Result is the outcome of one simulation.
type Result struct {
	Design   string
	Workload string
	// Instructions committed across all cores during measurement.
	Instructions float64
	// NS is the measured wall-clock in nanoseconds.
	NS float64
	// IPC is per-core instructions per core cycle.
	IPC float64
	// Performance is committed instructions per nanosecond (the
	// "inverse of execution time" metric of §6.2).
	Performance float64
	// Stack is the per-bucket share of core cycles (sums to ~1).
	Stack [bucketCount]float64
	// AvgNoCLatency is the mean coherence-message latency in NoC cycles.
	AvgNoCLatency float64
	// Transactions counts completed coherence transactions.
	Transactions int64
	// Retransmits counts NACKed bus transfers that were re-sent
	// (fault injection only).
	Retransmits int64
	// DegradedBroadcastCycles is the (possibly fault-degraded) data-bus
	// broadcast span in NoC cycles; 0 for non-bus designs. Healthy
	// CryoBus reports its 1-cycle broadcast here.
	DegradedBroadcastCycles float64
}

// NoCShare returns the network-bound fraction of the CPI stack — the
// Fig 3 metric. Barrier (sync) time is network time: every cycle of it
// is spent waiting on coherence messages crossing the NoC.
func (r Result) NoCShare() float64 { return r.Stack[BucketNoC] + r.Stack[BucketSync] }

// Config holds run-length and seed knobs.
type Config struct {
	WarmupCycles  int
	MeasureCycles int
	Seed          int64
	// Fault, when non-nil, injects the configured fault scenario into
	// the interconnect and memory path. Nil runs a healthy system.
	Fault *fault.Config
	// Watchdog configures deadlock/livelock detection; the zero value
	// enables it with defaults.
	Watchdog Watchdog
	// ctx carries the caller's cancellation signal into Run and into
	// every grid evaluation built on this config; nil never cancels.
	// Set with WithContext (the field stays unexported so the zero
	// Config keeps working everywhere).
	ctx context.Context
}

// WithContext returns a copy of the config whose simulations and grid
// fan-outs abort with ctx's error once ctx is canceled or times out.
func (c Config) WithContext(ctx context.Context) Config {
	c.ctx = ctx
	return c
}

// Context returns the config's cancellation context, never nil.
func (c Config) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// DefaultConfig returns run lengths that trade a little noise for
// single-machine speed.
func DefaultConfig() Config {
	return Config{WarmupCycles: 6000, MeasureCycles: 24000, Seed: 1}
}

// protocol abstracts the two coherence engines. AccessInto writes the
// message sequence into a caller-owned Transaction whose slices are
// reset and reused — the simulator hands it the pooled txn's embedded
// Transaction, so the coherence layer allocates nothing in steady state.
type protocol interface {
	AccessInto(tx *coherence.Transaction, addr uint64, core, home int, write, l3Hit bool)
}

// txn is one in-flight coherence transaction.
type txn struct {
	// ctx is the protocol's message sequence, owned by this txn so its
	// leg slices are recycled with it through the pool (AccessInto
	// resets and refills them in place).
	ctx      coherence.Transaction
	core     int
	addr     uint64
	legs     []coherence.Leg
	leg      int
	l3Access bool
	dram     bool
	started  int64
	// barrier transactions serialize on the lock line and are charged
	// to the sync bucket.
	barrier bool
	// prefetches do not hold commit tokens.
	prefetch bool
	// blocking marks a dependent miss: instructions after it need its
	// value, so commit halts until it completes. Misses block with
	// probability 1/MLP — the interval-analysis formulation of
	// memory-level parallelism.
	blocking bool
	// lockLine ≥ 0 marks a contended lock hand-off serialized on that
	// hot line.
	lockLine int
	// chain counts follow-up hand-off phases still to run on the line.
	chain int
	// invLegs is the pending parallel invalidation fan-out; invRemaining
	// acks must arrive before the data leg proceeds.
	invLegs      []coherence.Leg
	invRemaining int
	// phase is where the transaction currently waits.
	phase StallBucket
}

// System is a constructed simulation ready to run: the design ×
// profile × config triple plus every pool, queue, timing wheel, RNG
// and counter the cycle loop touches. Systems never share mutable
// state — each has its own seeded RNG, wheel and free lists — so runs
// on different goroutines are independent and every Result is a pure
// function of its spec. A System must not be copied after New: the
// network delivery hooks capture its address. A System runs once: Run
// resets its scratch (below) for whichever simulation uses it next.
type System struct {
	design Design
	prof   workload.Profile
	cfg    Config

	net noc.Network
	// dataNet is the separate data bus of snooping designs (the address
	// bus carries snoops, a wide data path carries lines — classic
	// split-transaction bus organization). Nil for mesh/ideal designs.
	dataNet   noc.Network
	ideal     bool
	inj       *fault.Injector
	proto     protocol
	dram      *dram.Memory
	rng       *rand.Rand
	cores     []coreState
	now       int64
	nextPkt   int64
	completed int64
	latSum    int64
	msgCount  int64

	// scr is the working memory the System borrows for one run; wheel,
	// the commit table's storage and the protocol's line table live in
	// it.
	scr *scratch
	// wheel is the event schedule: injection retries and service
	// completions, bucketed by cycle (see wheel.go).
	wheel *eventWheel
	// slots is the in-flight packet table. Each offered packet carries
	// its slot index (+1, so the zero Packet is "unreferenced") in
	// Packet.Slot; delivery resolves the owning transaction with one
	// bounds-checked load instead of a map lookup.
	slots     []inflightSlot
	freeSlots []int32
	inflightN int

	// Free lists recycle the per-transaction allocations of the cycle
	// loop. A steady-state Step allocates nothing: transactions and
	// schedule events come from (and return to) these pools, and
	// packets are values the networks copy.
	txnFree []*txn
	evFree  []*injEvent

	// Hot-path constants hoisted out of the cycle loop: these are pure
	// functions of the design × profile pair, precomputed in New so
	// Step's miss/lock/barrier draws skip the math.Pow/divide chains.
	blockP      float64
	lockIntv    float64
	barrierIntv float64
	l3Cyc       int64

	// barrier bookkeeping
	barrierArrived int

	// Event-driven core phase (corewake.go). ticks counts the core
	// phases run so far (s.now between Steps). commits is the committed
	// count per commit cycle; wakes holds running cores' next event
	// cycles; stalled is the bitset of stalled cores and due the scratch
	// bitset of cores whose events run this cycle. nRunning and nBarrier
	// count the cores in those modes.
	ticks              int64
	commits            commitTable
	wakes              wakeHeap
	stalled, due       []uint64
	nRunning, nBarrier int

	// hot contended lines: lock hand-offs and the barrier line, each
	// serializing its transactions (index lockLineCount is the barrier
	// line).
	locks [lockLineCount + 1]serialLine

	// measurement
	measuring bool
	instrBase float64
	stackCycl [bucketCount]float64
}

// injEvent is a scheduled event: an injection retry of pkt when retry
// is set, else a service completion that injects t's current leg.
type injEvent struct {
	pkt   noc.Packet
	t     *txn
	inv   bool
	retry bool
}

// inflightSlot ties an in-flight packet, named by its ID, to its
// transaction; inv marks an invalidation fan-out message rather than
// the main leg chain. injectedAt is the packet's injection cycle, which
// the watchdog ages. A free slot has a nil t.
type inflightSlot struct {
	id         int64
	injectedAt int64
	t          *txn
	inv        bool
}

// coreState is one statistical core. A core acts at three committed-
// instruction thresholds: its next demand miss, lock hand-off and
// barrier. nextEvent caches the earliest of them; every write to a
// threshold must re-arm it (armNextEvent) and then resync the core,
// which schedules its next wake from nextEvent (see corewake.go). The
// committed count is not stored: it is the commit table's entry for the
// core's commit cycles (System.committed).
type coreState struct {
	// n counts commit cycles: all of them while stalled or at a
	// barrier, those before tick since while running.
	n     int
	since int64
	mode  coreMode
	// gen numbers the core's wakes; a resync out of running or a re-arm
	// bumps it, so a stale heap entry is dropped when it pops.
	gen uint32

	nextMissAt  float64
	outstanding int
	txns        []*txn
	// blockedOn is the dependent miss currently stalling commit.
	blockedOn *txn

	nextBarrierAt float64
	nextLockAt    float64
	nextEvent     float64
	inBarrier     bool
	released      bool

	// derived per-core rates
	instrPerMiss float64
	mlpCap       int // hard MSHR/load-queue window
}

// scratch is the working memory a simulation can hand on to the next
// one: the event wheel (its 4096 bucket headers alone are ~100 KB), the
// commit table's storage (160 KB at CLI run lengths) and the coherence
// line table (about 2 MB once full). New builds a fresh one for each
// System; a BatchRunner call keeps one per worker and passes it from
// each spec the worker runs to the next, so a batch allocates this
// memory once per worker instead of once per simulation. Run resets it
// on every exit, so the next simulation finds it as New built it and
// its Result is bit-equal to a fresh System's.
type scratch struct {
	wheel   eventWheel
	commits []float64
	lines   *coherence.LineTable
}

// trackedLines bounds the coherence line table, mimicking finite
// L3/directory capacity.
const trackedLines = 1 << 15

func newScratch() *scratch {
	return &scratch{lines: coherence.NewLineTable(trackedLines)}
}

// release resets the scratch for the next simulation, handing back the
// commit table's storage as this run grew it.
func (s *System) release() {
	s.scr.wheel.reset()
	s.scr.commits = s.commits.sums[:0]
	s.scr.lines.Reset()
}

// New builds a system for the design × workload pair.
func New(d Design, p workload.Profile, cfg Config) (*System, error) {
	return newOn(newScratch(), d, p, cfg)
}

// newOn builds a system that runs on scr, which must be fresh or reset
// by the Run of the System that used it last. A failed build leaves scr
// untouched.
func newOn(scr *scratch, d Design, p workload.Profile, cfg Config) (*System, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &System{design: d, prof: p, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Fault != nil && cfg.Fault.Active() {
		inj, err := fault.New(*cfg.Fault)
		if err != nil {
			return nil, err
		}
		s.inj = inj
	}
	if err := s.buildNetwork(); err != nil {
		return nil, err
	}
	if d.Memory.Temp < phys.T300 {
		s.dram = dram.NewMemory(dram.CLLDRAM(), dramChannels, dramBanks)
	} else {
		s.dram = dram.NewMemory(dram.DDR4(), dramChannels, dramBanks)
	}
	s.scr, s.wheel = scr, &scr.wheel
	if d.Net.Snooping() {
		s.proto = scr.lines.Snoop()
	} else {
		s.proto = scr.lines.Directory()
	}
	s.cores = make([]coreState, d.Cores)
	for i := range s.cores {
		c := &s.cores[i]
		c.instrPerMiss = s.instrPerMiss()
		c.mlpCap = s.mlpCap()
		c.nextMissAt = c.instrPerMiss * s.expRand()
		c.nextBarrierAt = s.barrierInterval() * (0.5 + s.rng.Float64())
		c.nextLockAt = s.lockInterval() * (0.5 + s.rng.Float64())
		c.armNextEvent()
	}
	// Hoist the design-constant rates out of the cycle loop (identical
	// values, computed once instead of per draw).
	s.blockP = s.blockProb()
	s.lockIntv = s.lockInterval()
	s.barrierIntv = s.barrierInterval()
	s.l3Cyc = s.l3CyclesDerive()
	s.commits = newCommitTable(s.unstalledRate(), cfg.WarmupCycles+cfg.MeasureCycles+1, scr.commits)
	words := (d.Cores + 63) / 64
	s.stalled = make([]uint64, words)
	s.due = make([]uint64, words)
	for i := range s.cores {
		s.resync(i, true)
	}
	return s, nil
}

// armNextEvent sets nextEvent to the earliest of the core's three
// thresholds. A NaN threshold (an infinite interval times a zero
// exponential draw) never fires, since committed >= NaN is false, so it
// is skipped here: the builtin min would return NaN and silence the
// other two. nextEvent is what resync schedules a running core's wake
// from and what Step tests a stalled core against, so every re-arm is
// followed by a resync.
func (c *coreState) armNextEvent() {
	e := math.Inf(1)
	for _, t := range [...]float64{c.nextMissAt, c.nextLockAt, c.nextBarrierAt} {
		if t < e {
			e = t
		}
	}
	c.nextEvent = e
}

// --- hot-path allocation pools ---------------------------------------------
//
// The cycle loop recycles its two per-transaction allocations —
// transactions and schedule events — through free lists, so a
// steady-state Step allocates nothing. Pooling is invisible to the
// simulation: an object is freed only once no queue, slot or schedule
// references it, and every alloc fully reinitializes the object.

// newTxn returns a zeroed transaction from the pool. The embedded
// coherence.Transaction keeps its slice capacity across recycles (the
// protocol's AccessInto resets and refills it), so a warmed pool makes
// coherence accesses allocation-free.
func (s *System) newTxn() *txn {
	if n := len(s.txnFree); n > 0 {
		t := s.txnFree[n-1]
		s.txnFree = s.txnFree[:n-1]
		ctx := t.ctx
		*t = txn{}
		t.ctx = ctx
		return t
	}
	return &txn{}
}

// freeTxn recycles a retired transaction.
func (s *System) freeTxn(t *txn) { s.txnFree = append(s.txnFree, t) }

// newEvent returns a zeroed schedule event from the pool.
func (s *System) newEvent() *injEvent {
	if n := len(s.evFree); n > 0 {
		ev := s.evFree[n-1]
		s.evFree = s.evFree[:n-1]
		*ev = injEvent{}
		return ev
	}
	return &injEvent{}
}

// freeEvent recycles a fired schedule event.
func (s *System) freeEvent(ev *injEvent) { s.evFree = append(s.evFree, ev) }

// offer injects p on net for t, reporting whether net accepted it. The
// packet takes a slot and carries its reference into the network; a
// refused packet gives the slot straight back, so the free-slot order
// is as if it had never been taken.
func (s *System) offer(net noc.Network, p noc.Packet, t *txn, inv bool) bool {
	idx := s.takeSlot(p, t, inv)
	p.Slot = idx + 1
	if !net.TryInject(p) {
		s.releaseSlot(idx)
		return false
	}
	return true
}

// takeSlot records p as in flight for t and returns its slot index.
func (s *System) takeSlot(p noc.Packet, t *txn, inv bool) int32 {
	var idx int32
	if n := len(s.freeSlots); n > 0 {
		idx = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	} else {
		idx = int32(len(s.slots))
		s.slots = append(s.slots, inflightSlot{})
	}
	s.slots[idx] = inflightSlot{id: p.ID, injectedAt: p.InjectedAt, t: t, inv: inv}
	s.inflightN++
	return idx
}

// releaseSlot frees a slot.
func (s *System) releaseSlot(idx int32) {
	s.slots[idx] = inflightSlot{}
	s.freeSlots = append(s.freeSlots, idx)
	s.inflightN--
}

// lockInterval is committed instructions between contended lock ops.
func (s *System) lockInterval() float64 {
	if s.prof.LockMPKI <= 0 {
		return math.Inf(1)
	}
	return 1000 / s.prof.LockMPKI
}

// buildNetwork instantiates the interconnect. User-reachable (the
// design's net kind and core count come in through the public API), so
// every invalid shape is an error, not a panic. The request network
// degrades under the "req" fault domain and the data network under
// "data": physically distinct wire sets fail independently.
func (s *System) buildNetwork() error {
	d := s.design
	mkShared := func() *noc.Bus {
		return noc.NewBus(noc.BusConfig{
			Name: "shared-bus", Nodes: d.Cores,
			Layout: noc.NewSerpentine(d.Cores), Timing: d.NoC,
		})
	}
	switch d.Net {
	case Mesh:
		m, err := noc.BuildMesh(d.Cores, d.NoC)
		if err != nil {
			return err
		}
		m.ApplyFaults(s.inj, "req")
		s.net = m
	case SharedBus:
		s.net = mkShared()
		s.dataNet = mkShared()
	case CryoBus:
		s.net = noc.NewCryoBus(d.Cores, d.NoC)
		s.dataNet = noc.NewCryoBus(d.Cores, d.NoC)
	case CryoBus2Way:
		s.net = noc.NewInterleavedBus(2, func() *noc.Bus { return noc.NewCryoBus(d.Cores, d.NoC) })
		s.dataNet = noc.NewInterleavedBus(2, func() *noc.Bus { return noc.NewCryoBus(d.Cores, d.NoC) })
	case Ideal:
		s.net = newIdealNet(d.Cores)
		s.ideal = true
	default:
		return fmt.Errorf("sim: unknown net kind %v", d.Net)
	}
	if s.inj != nil {
		attach := func(n noc.Network, domain string) {
			switch v := n.(type) {
			case *noc.Bus:
				v.AttachInjector(s.inj, domain)
			case *noc.InterleavedBus:
				v.AttachInjector(s.inj, domain)
			}
		}
		attach(s.net, "req")
		if s.dataNet != nil {
			attach(s.dataNet, "data")
		}
	}
	hook := func(n noc.Network) {
		switch v := n.(type) {
		case *noc.RouterNet:
			v.OnDeliver = s.onDeliver
		case *noc.Bus:
			v.OnDeliver = s.onDeliver
		case *idealNet:
			v.OnDeliver = s.onDeliver
		case *noc.InterleavedBus:
			v.SetOnDeliver(s.onDeliver)
		}
	}
	hook(s.net)
	if s.dataNet != nil {
		hook(s.dataNet)
	}
	return nil
}

// --- per-core rate derivations -------------------------------------------

// freqRatio is core cycles per NoC cycle.
func (s *System) freqRatio() float64 {
	return s.design.Core.FreqGHz / s.design.NoC.FreqGHz
}

// unstalledRate returns instructions per NoC cycle with a perfect
// L2-miss-free memory system: issue-width/ILP limit, branch cost at the
// design's pipeline depth, and the (mostly overlapped) L1-miss/L2-hit
// component.
func (s *System) unstalledRate() float64 {
	p := s.prof
	c := s.design.Core
	effILP := p.ILP * structureFactor(c.ROB)
	ilpLimit := math.Min(effILP, float64(c.Width)*0.85)
	l2HitCore := s.design.Memory.L2.LatencyNS() * c.FreqGHz
	cpi := 1/ilpLimit +
		p.BranchMPKI/1000*float64(c.MispredictPenalty) +
		p.L1MPKI/1000*l2HitCore/l1OverlapMLP
	return (1 / cpi) * s.freqRatio()
}

// l1OverlapMLP is how many L1-miss/L2-hit accesses overlap.
const l1OverlapMLP = 4.0

// structureFactor de-rates exploitable ILP for smaller backends
// (CryoCore halves the ROB and queues, Table 3).
func structureFactor(rob int) float64 {
	const refROB = 224.0
	return math.Pow(float64(rob)/refROB, 0.10)
}

// instrPerMiss is the mean committed-instruction gap between L2 misses,
// after prefetch coverage.
func (s *System) instrPerMiss() float64 {
	mpki := s.prof.L2MPKI
	if s.design.Prefetch.Enabled {
		mpki *= 1 - s.design.Prefetch.Coverage
	}
	if mpki <= 0 {
		return math.Inf(1)
	}
	return 1000 / mpki
}

// mlpCap is the hard in-flight miss window set by the load queue; the
// softer dependence-driven limit comes from blocking misses (1/MLP).
func (s *System) mlpCap() int {
	cap := s.design.Core.LoadQ / 4
	if cap < 2 {
		cap = 2
	}
	return cap
}

// blockProb is the probability a miss is a dependent (blocking) one.
func (s *System) blockProb() float64 {
	mlp := s.prof.MLP
	// Smaller backends extract less MLP (CryoCore halves the LQ/ROB).
	mlp *= math.Pow(float64(s.design.Core.LoadQ)/72.0, 0.15)
	if mlp < 1 {
		mlp = 1
	}
	return 1 / mlp
}

// barrierInterval is committed instructions between barriers.
func (s *System) barrierInterval() float64 {
	if s.prof.BarriersPerMI <= 0 {
		return math.Inf(1)
	}
	return 1e6 / s.prof.BarriersPerMI
}

// expRand draws a unit-mean exponential jitter.
func (s *System) expRand() float64 {
	return s.rng.ExpFloat64()
}
