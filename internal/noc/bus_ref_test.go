package noc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cryowire/internal/fault"
)

// refMatrix is the priority matrix MatrixArbiter used to store:
// prio[i][j] means i beats j. It is kept, with refGrant, as the
// reference the last-grant-stamp arbiter must match grant for grant.
type refMatrix struct {
	n    int
	prio [][]bool
}

func newRefMatrix(n int) *refMatrix {
	a := &refMatrix{n: n, prio: make([][]bool, n)}
	for i := range a.prio {
		a.prio[i] = make([]bool, n)
		for j := range a.prio[i] {
			a.prio[i][j] = i < j
		}
	}
	return a
}

// refGrant is the matrix Grant as it was: the requester that beats
// every other requester wins and drops below everyone.
func (a *refMatrix) refGrant(requests []bool) int {
	granted := -1
	for i := 0; i < a.n; i++ {
		if !requests[i] {
			continue
		}
		wins := true
		for j := 0; j < a.n; j++ {
			if j != i && requests[j] && !a.prio[i][j] {
				wins = false
				break
			}
		}
		if wins {
			granted = i
			break
		}
	}
	if granted >= 0 {
		for j := 0; j < a.n; j++ {
			if j != granted {
				a.prio[granted][j] = false
				a.prio[j][granted] = true
			}
		}
	}
	return granted
}

// order lists the requesters from highest to lowest priority: a
// requester beaten by k others sits at position k.
func (a *refMatrix) order() []int {
	out := make([]int, a.n)
	for i := 0; i < a.n; i++ {
		beaten := 0
		for j := 0; j < a.n; j++ {
			if j != i && a.prio[j][i] {
				beaten++
			}
		}
		out[beaten] = i
	}
	return out
}

// stampOrder lists the arbiter's requesters from highest to lowest
// priority: ascending last-grant stamp, the order the matrix encodes.
func (a *MatrixArbiter) stampOrder() []int {
	out := make([]int, len(a.stamp))
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(x, y int) bool { return a.stamp[out[x]] < a.stamp[out[y]] })
	return out
}

// refStep is the bus cycle as it was before Step skipped idle cycles,
// read request-wire times from reqCycles and arbitrated over the
// waiting-node bitset. It is kept verbatim, arbitrating with refGrant
// on arb over a full request vector, as the reference Step must match
// cycle for cycle. It does not maintain b.queued or b.waiting.
func (b *Bus) refStep(arb *refMatrix) {
	now := b.now
	reqs := make([]bool, len(b.queues))
	// Deliveries.
	keep := b.inflight[:0]
	for _, f := range b.inflight {
		if f.deliverAt <= now {
			if b.OnDeliver != nil {
				b.OnDeliver(b.pkts.at[f.pkt], now)
			} else {
				b.stats.Record(b.pkts.at[f.pkt], now)
			}
			b.pkts.release(f.pkt)
		} else {
			keep = append(keep, f)
		}
	}
	b.inflight = keep
	// Arbitration: one new owner whenever the bus is free. A request is
	// visible at the arbiter after its request-wire flight time (and,
	// for a NACKed packet, after its retransmit backoff has elapsed).
	if b.busFree <= now {
		if b.inj.StallGrant(b.domain, now) {
			// The grant pulse is lost this cycle: requesters keep
			// waiting and re-arbitrate next cycle.
			b.stats.GrantStalls++
			b.now++
			return
		}
		for i := range reqs {
			reqs[i] = false
			if b.queues[i].n > 0 {
				head := b.queues[i].front()
				reqWire := int64(b.cfg.Timing.WireCycles(b.cfg.Layout.ReqHops(i)))
				if b.pkts.at[head.pkt].InjectedAt+reqWire > now {
					continue
				}
				if head.attempts > 0 && head.visibleAt > now {
					continue
				}
				reqs[i] = true
			}
		}
		g := arb.refGrant(reqs)
		if g >= 0 {
			e := b.queues[g].popFront()
			p := b.pkts.at[e.pkt]
			tc := int64(b.transferCycles(p))
			flits := p.Flits
			if flits < 1 {
				flits = 1
			}
			b.energy.Arbitrations++
			b.energy.WireMMFlits += float64(b.transferHops(p)) * tileMM * float64(flits)
			// Arbitration and grant/control distribution are pipelined
			// with the previous transfer ("it does not worsen the
			// contention", §5.2.3): the bus is occupied for the transfer
			// time only, while each packet's latency still pays its own
			// grant path.
			grantLat := int64(1+b.cfg.ControlCycles) + int64(b.cfg.Timing.WireCycles(b.cfg.Layout.ReqHops(g)))
			start := now + grantLat
			b.busFree = now + tc
			attempts := int(e.attempts)
			if b.inj.CorruptTransfer(b.domain, p.ID, attempts) && attempts < b.inj.MaxRetries() {
				// The transfer arrived corrupted: the receivers NACK it
				// and the source retransmits after an exponential
				// backoff. The corrupted attempt still occupied the bus
				// and drove the wires.
				b.stats.Retransmits++
				b.queues[g].pushFront(queuedPkt{visibleAt: now + tc + b.inj.Backoff(attempts+1), pkt: e.pkt, attempts: e.attempts + 1})
			} else {
				// Clean transfer — or the retry budget is exhausted and
				// the ECC layer is assumed to correct the residue, so
				// the packet is delivered rather than hanging forever.
				b.inflight = append(b.inflight, busInflight{deliverAt: start + tc, pkt: e.pkt})
			}
		}
	}
	b.now++
}

// busTwin is one side of a bus equivalence run: the stripes of one
// network, their reference arbiters (ref side only) and the ordered
// delivery log.
type busTwin struct {
	net    Network
	stripe []*Bus
	arbs   []*refMatrix
	log    []delivery
}

func newBusTwin(net Network, ref bool) *busTwin {
	tw := &busTwin{net: net}
	switch n := net.(type) {
	case *Bus:
		tw.stripe = []*Bus{n}
	case *InterleavedBus:
		tw.stripe = n.Stripes()
	}
	for _, b := range tw.stripe {
		b.OnDeliver = func(p Packet, now int64) {
			b.stats.Record(p, now)
			tw.log = append(tw.log, delivery{id: p.ID, at: now})
		}
		if ref {
			tw.arbs = append(tw.arbs, newRefMatrix(b.cfg.Nodes))
		}
	}
	return tw
}

func (tw *busTwin) step() {
	if tw.arbs == nil {
		tw.net.Step()
		return
	}
	for i, b := range tw.stripe {
		b.refStep(tw.arbs[i])
	}
}

// busEquivCase is a bus design Step is checked on. fired, when set,
// reports whether the run exercised the fault the case injects.
type busEquivCase struct {
	name  string
	mk    func() Network
	fired func(net Network, st Stats) bool
}

// busEquivNets lists the bus designs Step is checked on.
func busEquivNets(t *testing.T) []busEquivCase {
	cryo := func() *Bus { return NewCryoBus(64, bus77()) }
	// wide spans two mask words, so arbitration crosses a word edge.
	wide := func() *Bus { return NewSharedBus77(100, bus77()) }
	faulty := func(cfg fault.Config, mk func() *Bus) func() Network {
		inj := mustInjector(t, cfg)
		return func() Network {
			b := mk()
			b.AttachInjector(inj, "")
			return b
		}
	}
	degraded := func(net Network, _ Stats) bool {
		switch net.(*Bus).Layout().(type) {
		case HTreeLayout, SerpentineLayout:
			return false
		}
		return true
	}
	return []busEquivCase{
		{"serpentine-300K", func() Network { return NewSharedBus300(64, bus300()) }, nil},
		{"serpentine-77K", func() Network { return NewSharedBus77(64, bus77()) }, nil},
		{"h-tree-300K", func() Network { return NewHTreeBus300(64, bus300()) }, nil},
		{"CryoBus", func() Network { return cryo() }, nil},
		{"CryoBus-static-links", func() Network {
			return NewBus(BusConfig{Name: "cryobus", Nodes: 64, Layout: NewHTree(64), Timing: bus77(), ControlCycles: 1})
		}, nil},
		{"CryoBus-2-way", func() Network { return NewInterleavedBus(2, cryo) }, nil},
		{"CryoBus-4-way", func() Network { return NewInterleavedBus(4, cryo) }, nil},
		{"CryoBus-dead-segments", faulty(fault.Config{Seed: 3, LinkFailureRate: 0.3}, cryo), degraded},
		{"serpentine-dead-segments", faulty(fault.Config{Seed: 5, LinkFailureRate: 0.2}, func() *Bus { return NewSharedBus77(64, bus77()) }), degraded},
		{"CryoBus-corruption", faulty(fault.Config{Seed: 7, FlitCorruptionRate: 0.2}, cryo),
			func(_ Network, st Stats) bool { return st.Retransmits > 0 }},
		{"CryoBus-grant-stalls", faulty(fault.Config{Seed: 9, GrantStallRate: 0.1}, cryo),
			func(_ Network, st Stats) bool { return st.GrantStalls > 0 }},
		{"serpentine-100", func() Network { return wide() }, nil},
		{"serpentine-100-corruption", faulty(fault.Config{Seed: 11, FlitCorruptionRate: 0.2}, wide),
			func(_ Network, st Stats) bool { return st.Retransmits > 0 }},
	}
}

// TestBusStepMatchesReference drives Step and refStep on twin buses
// with the same seeded open-loop traffic and compares their whole state
// after every cycle: the ordered delivery log, Stats, Energy, the bus
// horizon, every queue's contents, the in-flight list, the retransmit
// state and the arbiter order. Each rate runs two traffic bursts with
// a drain after each, so the bus goes idle and wakes up again.
func TestBusStepMatchesReference(t *testing.T) {
	rates := []float64{0, 0.002, 0.01, 0.05, 0.3}
	for _, nc := range busEquivNets(t) {
		for _, multi := range []bool{false, true} {
			mode := "1-flit"
			if multi {
				mode = "multi-flit"
			}
			t.Run(fmt.Sprintf("%s/%s", nc.name, mode), func(t *testing.T) {
				t.Parallel()
				var total Stats
				for _, rate := range rates {
					net, st := runBusTwins(t, nc.mk, multi, rate)
					total.Delivered += st.Delivered
					total.Retransmits += st.Retransmits
					total.GrantStalls += st.GrantStalls
					if nc.fired != nil && rate > 0 && !nc.fired(net, st) {
						t.Errorf("rate %g: the injected fault never fired (stats %+v)", rate, st)
					}
				}
				if total.Delivered == 0 {
					t.Fatal("nothing delivered")
				}
			})
		}
	}
}

// runBusTwins runs one (bus, packet mix, rate) point and returns the
// fast side's network and Stats. A quarter of the packets are
// broadcasts.
func runBusTwins(t *testing.T, mk func() Network, multi bool, rate float64) (Network, Stats) {
	t.Helper()
	const burstCycles, drainCycles = 150, 150
	fast, ref := newBusTwin(mk(), false), newBusTwin(mk(), true)
	nodes := fast.net.Nodes()
	rng := rand.New(rand.NewSource(int64(rate*1e6) + 1))
	pending := make([][]Packet, nodes)
	var id int64
	const total = 2 * (burstCycles + drainCycles)
	for cyc := 0; cyc < total; cyc++ {
		now := fast.net.Cycle()
		generating := cyc%(burstCycles+drainCycles) < burstCycles
		for s := 0; s < nodes && generating; s++ {
			if rng.Float64() >= rate {
				continue
			}
			pk := Packet{ID: id, Src: s, Dst: Uniform{}.Dest(s, nodes, rng), Flits: 1, InjectedAt: now}
			id++
			if rng.Float64() < 0.25 {
				pk.Dst = Broadcast
			}
			if multi && rng.Float64() < 0.3 {
				pk.Flits = 4
			}
			pending[s] = append(pending[s], pk)
		}
		for s := range pending {
			for len(pending[s]) > 0 {
				okF, okR := fast.net.TryInject(pending[s][0]), ref.net.TryInject(pending[s][0])
				if okF != okR {
					t.Fatalf("rate %g cycle %d: TryInject at node %d = %v, reference %v", rate, cyc, s, okF, okR)
				}
				if !okF {
					break
				}
				pending[s] = pending[s][1:]
			}
		}
		fast.step()
		ref.step()
		if err := compareBusTwins(fast, ref); err != nil {
			t.Fatalf("rate %g cycle %d: %v", rate, cyc, err)
		}
	}
	return fast.net, *fast.net.Stats()
}

// compareBusTwins reports the first difference between the two sides,
// or a fast-side queued count or waiting bit that disagrees with its
// queues.
func compareBusTwins(fast, ref *busTwin) error {
	if len(fast.log) != len(ref.log) {
		return fmt.Errorf("%d deliveries, reference %d", len(fast.log), len(ref.log))
	}
	for i := range fast.log {
		if fast.log[i] != ref.log[i] {
			return fmt.Errorf("delivery %d is %+v, reference %+v", i, fast.log[i], ref.log[i])
		}
	}
	for si, a := range fast.stripe {
		b := ref.stripe[si]
		if a.now != b.now || a.busFree != b.busFree {
			return fmt.Errorf("stripe %d: cycle %d busFree %d, reference cycle %d busFree %d", si, a.now, a.busFree, b.now, b.busFree)
		}
		if a.stats != b.stats {
			return fmt.Errorf("stripe %d: stats %+v, reference %+v", si, a.stats, b.stats)
		}
		if a.energy != b.energy {
			return fmt.Errorf("stripe %d: energy %+v, reference %+v", si, a.energy, b.energy)
		}
		queued := 0
		for q := range a.queues {
			qa, qb := &a.queues[q], &b.queues[q]
			queued += qa.n
			if waiting := a.waiting[q/64]>>(q%64)&1 == 1; waiting != (qa.n > 0) {
				return fmt.Errorf("stripe %d queue %d: waiting bit %v with %d packets queued", si, q, waiting, qa.n)
			}
			if qa.n != qb.n {
				return fmt.Errorf("stripe %d queue %d: %d packets, reference %d", si, q, qa.n, qb.n)
			}
			for k := 0; k < qa.n; k++ {
				ea, eb := qa.at(k), qb.at(k)
				ida, idb := a.pkts.at[ea.pkt].ID, b.pkts.at[eb.pkt].ID
				if ida != idb {
					return fmt.Errorf("stripe %d queue %d entry %d: packet %d, reference %d", si, q, k, ida, idb)
				}
				if ea.attempts != eb.attempts || (ea.attempts > 0 && ea.visibleAt != eb.visibleAt) {
					return fmt.Errorf("stripe %d packet %d: %d attempts visible at %d, reference %d attempts visible at %d",
						si, ida, ea.attempts, ea.visibleAt, eb.attempts, eb.visibleAt)
				}
			}
		}
		if a.queued != queued {
			return fmt.Errorf("stripe %d: queued count %d, %d packets queued", si, a.queued, queued)
		}
		if len(a.inflight) != len(b.inflight) {
			return fmt.Errorf("stripe %d: %d in flight, reference %d", si, len(a.inflight), len(b.inflight))
		}
		for k := range a.inflight {
			fa, fb := a.inflight[k], b.inflight[k]
			ida, idb := a.pkts.at[fa.pkt].ID, b.pkts.at[fb.pkt].ID
			if ida != idb || fa.deliverAt != fb.deliverAt {
				return fmt.Errorf("stripe %d in-flight %d: packet %d at %d, reference packet %d at %d",
					si, k, ida, fa.deliverAt, idb, fb.deliverAt)
			}
		}
		got, want := a.arb.stampOrder(), ref.arbs[si].order()
		for k := range want {
			if got[k] != want[k] {
				return fmt.Errorf("stripe %d: arbiter order %v, reference %v", si, got, want)
			}
		}
	}
	return nil
}

// TestMatrixArbiterMatchesReference: the last-grant-stamp arbiter
// must grant exactly what the priority matrix grants, and keep the same
// order, for seeded random request vectors of every density. Sizes run
// past 128 so masks of one, two and three words are all covered.
func TestMatrixArbiterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 130; n++ {
		a, ref := NewMatrixArbiter(n), newRefMatrix(n)
		req := make([]bool, n)
		for step := 0; step < 400; step++ {
			density := rng.Float64()
			for i := range req {
				req[i] = rng.Float64() < density
			}
			g, err := a.Grant(boolMask(req))
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.refGrant(req); g != want {
				t.Fatalf("n=%d step %d: granted %d, reference %d (requests %v)", n, step, g, want, req)
			}
			got, want := a.stampOrder(), ref.order()
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("n=%d step %d: order %v, reference %v", n, step, got, want)
				}
			}
		}
	}
}

// TestBusNACKReheadsEmptiedQueue: a NACK puts the packet back at the
// head of the queue the grant just emptied, so that node must rejoin
// arbitration. On a 100-node bus that corrupts every attempt, twin
// single packets on either side of the 64-node mask-word edge each
// retransmit the full retry budget, matching the reference every cycle,
// and are then delivered.
func TestBusNACKReheadsEmptiedQueue(t *testing.T) {
	inj := mustInjector(t, fault.Config{Seed: 1, FlitCorruptionRate: 1})
	mk := func() Network {
		b := NewSharedBus77(100, bus77())
		b.AttachInjector(inj, "")
		return b
	}
	fast, ref := newBusTwin(mk(), false), newBusTwin(mk(), true)
	for _, tw := range []*busTwin{fast, ref} {
		for _, src := range []int{3, 99} {
			if !tw.net.TryInject(Packet{ID: int64(src), Src: src, Dst: Broadcast, Flits: 1}) {
				t.Fatalf("node %d: injection into an empty queue refused", src)
			}
		}
	}
	for cyc := 0; cyc < 2000 && len(fast.log) < 2; cyc++ {
		fast.step()
		ref.step()
		if err := compareBusTwins(fast, ref); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
	}
	if len(fast.log) != 2 {
		t.Fatalf("%d of 2 packets delivered", len(fast.log))
	}
	if got, want := fast.net.Stats().Retransmits, int64(2*inj.MaxRetries()); got != want {
		t.Errorf("%d retransmits, want %d (the full budget for both packets)", got, want)
	}
}
