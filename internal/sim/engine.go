package sim

import (
	"fmt"
	"math"

	"cryowire/internal/coherence"
	"cryowire/internal/noc"
)

// dataFlitsMesh is the serialization length of a cache-line transfer on
// the flit-sliced mesh; control messages are single-flit. Snooping
// designs carry data on the wide split-transaction data bus, one slot
// per line.
const dataFlitsMesh = 5

// barrierAddr is the shared lock line all barrier traffic contends on.
const barrierAddr uint64 = 0xBA77_1E40

// lockLineCount hot lock lines carry all contended critical sections.
const lockLineCount = 4

// spinFanout is how many spinning waiters re-fetch the barrier line
// per arrival (staggered polling keeps it below the full waiter count).
const spinFanout = 6

// serialLine serializes transactions that fight over one cache line.
type serialLine struct {
	busy  bool
	queue []*txn
}

// barrierLine is the serial-line index of the barrier lock line.
const barrierLine = lockLineCount

// lockHandoffPhases is how many chained coherence transfers one lock
// hand-off costs (acquire RFO + release-visibility transfer).
const lockHandoffPhases = 2

// lockAddr returns the address of hot lock line i.
func lockAddr(i int) uint64 { return 0x10CC_0000 + uint64(i)*64 }

// sharedLines/privateLines size the synthetic address pools.
const (
	sharedLines  = 2048
	privateLines = 4096
)

// Main-memory organization: 8 channels × 8 banks, as a 64-core server
// would provision.
const (
	dramChannels = 8
	dramBanks    = 8
)

// l3CyclesDerive computes the L3 array service time in NoC cycles; it
// is design-constant, so New caches it in s.l3Cyc for the cycle loop.
func (s *System) l3CyclesDerive() int64 {
	c := int64(math.Round(s.design.Memory.L3.LatencyNS() * s.design.NoC.FreqGHz))
	if c < 1 {
		c = 1
	}
	return c
}

// dramCycles returns the DRAM service time in NoC cycles for the given
// address, issued now: the banked DRAM model resolves row-buffer state
// and per-bank queueing.
func (s *System) dramCycles(addr uint64, now int64) int64 {
	nowNS := float64(now) / s.design.NoC.FreqGHz
	doneNS := s.dram.Access(addr, nowNS)
	c := int64(math.Round((doneNS - nowNS) * s.design.NoC.FreqGHz))
	if c < 1 {
		c = 1
	}
	return c
}

// genAddr draws the address of a demand miss and whether it writes.
// Shared lines ping-pong between producers and consumers, so they see a
// much higher write fraction than private data — this is what keeps
// them Modified-owned and makes every access a costly 3-hop transfer on
// the directory mesh.
func (s *System) genAddr(core int) (addr uint64, write bool) {
	if s.rng.Float64() < s.prof.SharedFraction {
		return 0x5000_0000 + uint64(s.rng.Intn(sharedLines))*64, s.rng.Float64() < 0.45
	}
	return (uint64(core+1) << 32) + uint64(s.rng.Intn(privateLines))*64, s.rng.Float64() < 0.25
}

// home maps an address to its L3 home slice.
func (s *System) home(addr uint64) int {
	return int((addr / 64) % uint64(s.design.Cores))
}

// startTxn launches one coherence transaction for core. Barrier
// transactions use the shared lock line; prefetches are reads that
// do not hold commit tokens.
func (s *System) startTxn(core int, barrier, write, prefetch bool) *txn {
	addr, wr := s.genAddr(core)
	if !barrier {
		write = wr
	}
	l3Hit := s.rng.Float64() >= s.prof.L3MissRatio
	if barrier {
		addr = barrierAddr
		l3Hit = true
	}
	if prefetch {
		// Streams ahead of the demand stream: next-line addresses,
		// usually L3 hits.
		l3Hit = s.rng.Float64() >= s.prof.L3MissRatio*0.5
	}
	t := s.newTxn()
	s.proto.AccessInto(&t.ctx, addr, core, s.home(addr), write, l3Hit)
	t.core = core
	t.addr = addr
	t.legs = t.ctx.Legs
	t.l3Access = t.ctx.L3Access
	t.dram = t.ctx.DRAM
	t.started = s.now
	t.barrier = barrier
	t.prefetch = prefetch
	t.lockLine = -1
	t.invLegs = t.ctx.Invalidations
	t.phase = BucketNoC
	c := &s.cores[core]
	if !prefetch {
		c.outstanding++
		c.txns = append(c.txns, t)
		if !barrier && s.rng.Float64() < s.blockP {
			t.blocking = true
			c.blockedOn = t
		}
	}
	if barrier {
		// Lock-line ping-pong: arrivals (and release re-reads) serialize
		// on the barrier line.
		t.lockLine = barrierLine
		sl := &s.locks[barrierLine]
		if sl.busy {
			sl.queue = append(sl.queue, t)
			return t
		}
		sl.busy = true
	}
	s.injectLeg(t)
	return t
}

// startLockTxn launches a contended lock hand-off on a hot line. The
// acquiring core cannot run ahead of its critical section, so the
// transaction always blocks commit; hand-offs on the same line
// serialize, which is where slow NoCs destroy lock throughput.
func (s *System) startLockTxn(core int) {
	line := s.rng.Intn(lockLineCount)
	t := s.newTxn()
	s.proto.AccessInto(&t.ctx, lockAddr(line), core, s.home(lockAddr(line)), true, true)
	t.core = core
	t.legs = t.ctx.Legs
	t.l3Access = t.ctx.L3Access
	t.started = s.now
	t.blocking = true
	t.lockLine = line
	t.chain = lockHandoffPhases - 1
	t.invLegs = t.ctx.Invalidations
	t.phase = BucketNoC
	c := &s.cores[core]
	c.outstanding++
	c.txns = append(c.txns, t)
	c.blockedOn = t
	sl := &s.locks[line]
	if sl.busy {
		sl.queue = append(sl.queue, t)
		return
	}
	sl.busy = true
	s.injectLeg(t)
}

// legNetwork picks the network a leg travels on.
func (s *System) legNetwork(kind coherence.LegKind) noc.Network {
	if s.dataNet != nil && kind == coherence.Data {
		return s.dataNet
	}
	return s.net
}

// injectLeg offers the transaction's current leg to the network,
// retrying next cycle under back-pressure.
func (s *System) injectLeg(t *txn) {
	leg := t.legs[t.leg]
	flits := 1
	if leg.Kind == coherence.Data && s.dataNet == nil && !s.ideal {
		flits = dataFlitsMesh
	}
	dst := leg.To
	if dst == -1 {
		dst = noc.Broadcast
	}
	p := noc.Packet{ID: s.nextPkt, Src: leg.From, Dst: dst, Flits: flits, InjectedAt: s.now}
	s.nextPkt++
	if t.phase != BucketNoC {
		t.phase = BucketNoC
		s.rebucket(&s.cores[t.core])
	}
	if !s.offer(s.legNetwork(leg.Kind), p, t, false) {
		s.scheduleRetry(p, t, false)
	}
}

// scheduleRetry offers a refused packet again next cycle.
func (s *System) scheduleRetry(p noc.Packet, t *txn, inv bool) {
	ev := s.newEvent()
	ev.pkt = p
	ev.t = t
	ev.inv = inv
	ev.retry = true
	s.schedule(s.now+1, ev)
}

// injectInvalidations launches the parallel fan-out stage: one message
// per sharer, all racing through the network; the last ack releases the
// data leg.
func (s *System) injectInvalidations(t *txn) {
	t.invRemaining = len(t.invLegs)
	for _, leg := range t.invLegs {
		p := noc.Packet{ID: s.nextPkt, Src: leg.From, Dst: leg.To, Flits: 1, InjectedAt: s.now}
		s.nextPkt++
		if !s.offer(s.net, p, t, true) {
			s.scheduleRetry(p, t, true)
		}
	}
	t.invLegs = nil
}

// schedule queues a future injection retry or service completion on the
// timing wheel.
func (s *System) schedule(at int64, ev *injEvent) {
	s.wheel.schedule(at, s.now, ev)
}

// onDeliver advances a transaction when one of its packets lands. The
// packet carries its in-flight slot index (Packet.Slot), so resolving
// the owning transaction is one bounds-checked load and an ID check.
func (s *System) onDeliver(p noc.Packet, now int64) {
	idx := p.Slot - 1
	if idx < 0 || int(idx) >= len(s.slots) || s.slots[idx].t == nil || s.slots[idx].id != p.ID {
		return
	}
	sl := s.slots[idx]
	s.releaseSlot(idx)
	if s.measuring {
		s.latSum += now - p.InjectedAt
		s.msgCount++
	}
	t := sl.t
	if sl.inv {
		t.invRemaining--
		if t.invRemaining == 0 {
			s.advanceLeg(t)
		}
		return
	}
	t.leg++
	if t.leg >= len(t.legs) {
		s.completeTxn(t)
		return
	}
	// A directory write to a shared line must collect every
	// invalidation ack before the data leg proceeds.
	if len(t.invLegs) > 0 {
		s.injectInvalidations(t)
		return
	}
	s.advanceLeg(t)
}

// advanceLeg injects the current leg after any home-side service time.
func (s *System) advanceLeg(t *txn) {
	next := t.legs[t.leg]
	delay := int64(0)
	if next.Kind == coherence.Data && t.l3Access {
		delay += s.l3Cyc
		t.phase = BucketL3
		if t.dram {
			delay += s.dramCycles(t.addr, s.now)
			t.phase = BucketDRAM
		}
		s.rebucket(&s.cores[t.core])
		// Fault scenario: this access may be served from a degraded
		// (slow) L3/DRAM path.
		delay = s.inj.SlowMem(t.addr, delay)
	}
	if delay == 0 {
		s.injectLeg(t)
		return
	}
	ev := s.newEvent()
	ev.t = t
	s.schedule(s.now+delay, ev)
}

// completeTxn retires a transaction and re-syncs the cores it changed:
// its own core, or every core after a barrier release.
func (s *System) completeTxn(t *txn) {
	core := t.core
	rearm, all := s.retireTxn(t)
	if !all {
		s.resync(core, rearm)
		return
	}
	for i := range s.cores {
		s.resync(i, true)
	}
}

// retireTxn is completeTxn's bookkeeping. rearm reports that the core's
// barrier threshold moved; all, that a barrier release changed every
// core.
func (s *System) retireTxn(t *txn) (rearm, all bool) {
	s.completed++
	c := &s.cores[t.core]
	if !t.prefetch {
		c.outstanding--
		for i, o := range c.txns {
			if o == t {
				c.txns = append(c.txns[:i], c.txns[i+1:]...)
				break
			}
		}
		if c.blockedOn == t {
			c.blockedOn = nil
		}
	}
	if t.lockLine >= 0 {
		if t.chain > 0 {
			// Chain the next hand-off phase (release-visibility transfer)
			// while still holding the line.
			nt := s.newTxn()
			s.proto.AccessInto(&nt.ctx, lockAddr(t.lockLine%lockLineCount), t.core,
				s.home(lockAddr(t.lockLine%lockLineCount)), true, true)
			nt.core = t.core
			nt.legs = nt.ctx.Legs
			nt.l3Access = nt.ctx.L3Access
			nt.started = s.now
			nt.blocking = t.blocking
			nt.lockLine = t.lockLine
			nt.chain = t.chain - 1
			nt.barrier = t.barrier
			nt.invLegs = nt.ctx.Invalidations
			nt.phase = BucketNoC
			if !t.prefetch {
				c.outstanding++
				c.txns = append(c.txns, nt)
				if t.blocking {
					c.blockedOn = nt
				}
			}
			s.freeTxn(t)
			s.injectLeg(nt)
			return false, false
		}
		sl := &s.locks[t.lockLine]
		sl.busy = false
		if len(sl.queue) > 0 {
			nxt := sl.queue[0]
			sl.queue = sl.queue[1:]
			sl.busy = true
			s.injectLeg(nxt)
		}
	}
	barrier := t.barrier
	s.freeTxn(t)
	if !barrier {
		return false, false
	}
	// Barrier bookkeeping.
	if !c.released {
		// Arrival completed.
		s.barrierArrived++
		// Spinning waiters poll the arrival counter. On the snooping
		// bus the spinners snarf the value straight off the arrival
		// broadcast (read snarfing) — no extra traffic. On the
		// directory mesh every arrival invalidates their copies and a
		// handful re-fetch, so a barrier costs O(cores) extra hotspot
		// transactions on top of the serialized arrival chain — the
		// classic directory-barrier storm.
		waiting := s.barrierArrived - 1
		if s.design.Net.Snooping() {
			waiting = 0
		}
		if waiting > spinFanout {
			waiting = spinFanout
		}
		for k := 0; k < waiting; k++ {
			spinner := s.rng.Intn(s.design.Cores)
			sp := s.newTxn()
			s.proto.AccessInto(&sp.ctx, barrierAddr, spinner, s.home(barrierAddr),
				false, true)
			sp.core = spinner
			sp.started = s.now
			sp.phase = BucketNoC
			sp.legs = sp.ctx.Legs
			sp.lockLine = -1
			sp.prefetch = true // pure traffic: holds no commit tokens
			s.injectLeg(sp)
		}
		if s.barrierArrived == s.design.Cores {
			s.barrierArrived = 0
			if s.design.Net.Snooping() {
				// The final arrival broadcast carries the release: every
				// snooping waiter snarfs it and resumes immediately.
				for i := range s.cores {
					c := &s.cores[i]
					c.inBarrier = false
					c.nextBarrierAt = s.committed(c) + s.barrierIntv*(0.75+0.5*s.rng.Float64())
					c.armNextEvent()
				}
				return true, true
			}
			// Directory release storm: each waiter re-reads the flag
			// line concurrently; contention plays out on the NoC.
			for i := range s.cores {
				s.cores[i].released = true
				s.startTxn(i, true, false, false)
			}
			return true, true
		}
		return false, false
	}
	// Release read completed: resume.
	c.released = false
	c.inBarrier = false
	c.nextBarrierAt = s.committed(c) + s.barrierIntv*(0.75+0.5*s.rng.Float64())
	c.armNextEvent()
	return true, false
}

// Step advances the system one NoC cycle. This is the simulator's
// hottest function — one call per cycle, tens of thousands per
// evaluation — so the schedule is a timing wheel (no map traffic), every
// object it touches comes from a pool, and the core phase (stepCores,
// corewake.go) is event-driven: it visits only cores whose events are
// due. A running core commits without being touched: its committed
// count is a commit-table entry, and a min-heap wakes it in the cycle
// that count first reaches its next-event threshold. The CPI stack is
// charged from per-bucket core counts once per measured cycle; each
// bucket is a sum of whole cycles, exact in float64, so the stack is
// bit-equal to charging it core by core.
func (s *System) Step() {
	// Pending retries / service completions, in schedule order.
	s.fireEvents()
	s.stepCores()
	// Networks.
	s.net.Step()
	if s.dataNet != nil {
		s.dataNet.Step()
	}
	s.now++
}

// fireEvents runs the events scheduled for this cycle, in schedule
// order: injection retries and service completions.
func (s *System) fireEvents() {
	for _, ev := range s.wheel.drain(s.now) {
		if ev.retry {
			// Invalidations always ride the main request network.
			net := s.net
			if !ev.inv {
				net = s.legNetwork(ev.t.legs[ev.t.leg].Kind)
			}
			if !s.offer(net, ev.pkt, ev.t, ev.inv) {
				s.schedule(s.now+1, ev)
				continue
			}
			s.freeEvent(ev)
			continue
		}
		t := ev.t
		s.freeEvent(ev)
		s.injectLeg(t)
	}
}

// coreEvents is the slow path of Step's core phase: it issues the
// demand misses, lock hand-offs and barrier entry whose thresholds the
// core's committed count has reached, then re-arms the core's
// next-event threshold and re-syncs it.
func (s *System) coreEvents(i int, c *coreState) {
	committed := s.committed(c)
	// Demand misses (plus the prefetch stream).
	for committed >= c.nextMissAt && c.outstanding < c.mlpCap {
		s.startTxn(i, false, s.rng.Float64() < 0.3, false)
		c.nextMissAt += c.instrPerMiss * s.expRand()
		if pf := s.design.Prefetch; pf.Enabled {
			for d := 0; d < pf.Degree; d++ {
				s.startTxn(i, false, false, true)
			}
		}
	}
	// Contended lock hand-offs.
	for committed >= c.nextLockAt {
		s.startLockTxn(i)
		c.nextLockAt += s.lockIntv * (0.5 + s.rng.Float64())
	}
	// Barrier entry.
	if committed >= c.nextBarrierAt && !c.inBarrier {
		c.inBarrier = true
		s.startTxn(i, true, true, false)
	}
	c.armNextEvent()
	s.resync(i, true)
}

// stallBucket is the CPI-stack bucket a stalled core's cycle goes to:
// the phase of the miss it is blocked on, else of its oldest
// outstanding transaction.
func stallBucket(c *coreState) StallBucket {
	if c.blockedOn != nil {
		return c.blockedOn.phase
	}
	if len(c.txns) > 0 {
		return c.txns[0].phase
	}
	return BucketNoC
}

// totalCommitted sums committed instructions over all cores.
func (s *System) totalCommitted() float64 {
	t := 0.0
	for i := range s.cores {
		t += s.committed(&s.cores[i])
	}
	return t
}

// cancelCheckCycles is how often (in NoC cycles) Run polls its
// context: often enough that an abandoned request stops within
// microseconds of real time, rare enough to stay invisible in the
// cycle loop's profile.
const cancelCheckCycles = 1024

// Run executes warmup + measurement and returns the result. The
// watchdog samples the run every CheckInterval cycles; a deadlocked or
// livelocked system returns a cycle-stamped *StallError instead of
// spinning forever. If the config carries a context (Config.WithContext)
// the run aborts between cycles once that context is done, so canceled
// callers stop burning CPU mid-simulation rather than at the end.
// Every exit resets the System's scratch for the next simulation.
func (s *System) Run() (Result, error) {
	defer s.release()
	ctx := s.cfg.Context()
	done := ctx.Done()
	wd := watchdogState{cfg: s.cfg.Watchdog.withDefaults()}
	total := s.cfg.WarmupCycles + s.cfg.MeasureCycles
	var completedBase int64
	// The polls run on every multiple of their interval; each keeps the
	// next such cycle instead of dividing every cycle.
	nextCancel, nextCheck := cancelCheckCycles, wd.cfg.CheckInterval
	for cycle := 0; ; {
		if cycle == s.cfg.WarmupCycles {
			completedBase = s.startMeasuring()
		}
		if cycle >= total {
			break
		}
		s.Step()
		cycle++
		if cycle == nextCancel {
			nextCancel += cancelCheckCycles
			if done != nil {
				select {
				case <-done:
					return Result{}, fmt.Errorf("sim: %s/%s canceled at cycle %d: %w",
						s.design.Name, s.prof.Name, s.now, ctx.Err())
				default:
				}
			}
		}
		if cycle == nextCheck {
			nextCheck += wd.cfg.CheckInterval
			if !s.cfg.Watchdog.Disabled {
				if serr := s.checkWatchdog(&wd); serr != nil {
					return Result{}, serr
				}
			}
		}
	}
	return s.result(completedBase), nil
}

// startMeasuring ends warm-up: it turns on CPI-stack accounting and
// returns the transaction count the measurement starts from.
func (s *System) startMeasuring() (completedBase int64) {
	s.measuring = true
	s.instrBase = s.totalCommitted()
	return s.completed
}

// result assembles the measurement's Result once every cycle has run.
func (s *System) result(completedBase int64) Result {
	instr := s.totalCommitted() - s.instrBase
	ns := float64(s.cfg.MeasureCycles) / s.design.NoC.FreqGHz
	res := Result{
		Design:       s.design.Name,
		Workload:     s.prof.Name,
		Instructions: instr,
		NS:           ns,
		Performance:  instr / ns,
		Transactions: s.completed - completedBase,
	}
	coreCyc := ns * s.design.Core.FreqGHz * float64(s.design.Cores)
	res.IPC = instr / coreCyc
	totalStack := 0.0
	for _, v := range s.stackCycl {
		totalStack += v
	}
	if totalStack > 0 {
		for b := range res.Stack {
			res.Stack[b] = s.stackCycl[b] / totalStack
		}
	}
	if n := res.Transactions; n > 0 {
		// latSum counts per-leg latencies; average per message.
		res.AvgNoCLatency = float64(s.latSum) / float64(s.latMsgs())
	}
	res.Retransmits = s.netRetransmits()
	res.DegradedBroadcastCycles = s.broadcastCycles()
	return res
}

// netRetransmits totals NACK-forced retransmits across both networks.
func (s *System) netRetransmits() int64 {
	total := s.net.Stats().Retransmits
	if s.dataNet != nil {
		total += s.dataNet.Stats().Retransmits
	}
	return total
}

// broadcastCycles reports the data-path broadcast span in NoC cycles
// over the (possibly fault-degraded) bus layout; 0 for non-bus designs.
func (s *System) broadcastCycles() float64 {
	n := s.dataNet
	if n == nil {
		n = s.net
	}
	switch v := n.(type) {
	case *noc.Bus:
		return float64(v.Timing().WireCycles(v.Layout().BroadcastHops()))
	case *noc.InterleavedBus:
		b := v.Stripes()[0]
		return float64(b.Timing().WireCycles(b.Layout().BroadcastHops()))
	default:
		return 0
	}
}

// latMsgs estimates the number of measured messages (legs ≈ 2.2 per
// transaction on average); tracked exactly via a counter.
func (s *System) latMsgs() int64 {
	if s.msgCount == 0 {
		return 1
	}
	return s.msgCount
}

// idealNet is the zero-latency contention-free reference NoC of
// Fig 17 ("ideal NoC which has zero latency without contention and
// runs with snooping protocol").
type idealNet struct {
	nodes int
	now   int64
	stats noc.Stats
	queue []noc.Packet
	// spare is the second buffer of the Step double-buffering: deliveries
	// can re-inject, so the drained queue and the live queue must be
	// distinct storage, swapped each cycle to avoid per-cycle allocation.
	spare     []noc.Packet
	OnDeliver func(p noc.Packet, now int64)
}

func newIdealNet(nodes int) *idealNet { return &idealNet{nodes: nodes} }

// Nodes implements noc.Network.
func (n *idealNet) Nodes() int { return n.nodes }

// Cycle implements noc.Network.
func (n *idealNet) Cycle() int64 { return n.now }

// Stats implements noc.Network.
func (n *idealNet) Stats() *noc.Stats { return &n.stats }

// ZeroLoadLatency implements noc.Network.
func (n *idealNet) ZeroLoadLatency() float64 { return 1 }

// TryInject implements noc.Network.
func (n *idealNet) TryInject(p noc.Packet) bool {
	n.queue = append(n.queue, p)
	return true
}

// Step implements noc.Network: everything injected delivers after one
// cycle.
func (n *idealNet) Step() {
	q := n.queue
	n.queue = n.spare[:0]
	n.now++
	for _, p := range q {
		if n.OnDeliver != nil {
			n.OnDeliver(p, n.now)
		} else {
			n.stats.Record(p, n.now)
		}
	}
	n.spare = q[:0]
}
