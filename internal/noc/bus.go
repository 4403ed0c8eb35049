package noc

import (
	"fmt"
	"math"
	"math/bits"

	"cryowire/internal/fault"
)

// MatrixArbiter is the least-recently-granted arbiter CryoBus uses
// (§5.2.2). The hardware keeps a priority matrix where prio[i][j] means
// i beats j, and a grant drops the winner below everyone else. That
// matrix always encodes a total order: requesters ranked by when they
// were last granted. The arbiter stores that rank as one stamp per
// requester, so a grant costs one pass over the requesting bits.
type MatrixArbiter struct {
	// stamp[i] is requester i's last-grant time; lower beats higher.
	// The stamps start at i − n, below every grant's, so lower indices
	// come first until granted.
	stamp []int64
	next  int64 // stamp of the next grant
	words int   // mask length in uint64 words
	tail  uint64
}

// NewMatrixArbiter builds an arbiter for n requesters, lower indices
// first.
func NewMatrixArbiter(n int) *MatrixArbiter {
	a := &MatrixArbiter{stamp: make([]int64, n), words: maskWords(n), tail: ^uint64(0)}
	for i := range a.stamp {
		a.stamp[i] = int64(i - n)
	}
	if r := n % 64; r != 0 {
		a.tail = 1<<r - 1
	}
	return a
}

// maskWords is the number of uint64 words a mask over n requesters
// (or nodes) takes.
func maskWords(n int) int { return (n + 63) / 64 }

// Grant picks the least-recently-granted requester in the mask (bit i
// of word i/64 is requester i), or -1 when the mask is empty, and makes
// it the lowest priority. A mask of the wrong length, or one with a bit
// past the last requester, is a wiring bug and is reported as an error.
func (a *MatrixArbiter) Grant(mask []uint64) (int, error) {
	if len(mask) != a.words || (a.words > 0 && mask[a.words-1]&^a.tail != 0) {
		return -1, fmt.Errorf("noc: arbiter sized %d got a %d-word request mask %x", len(a.stamp), len(mask), mask)
	}
	g, best := -1, int64(math.MaxInt64)
	for w, word := range mask {
		for word != 0 {
			i := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if st := a.stamp[i]; st < best {
				g, best = i, st
			}
		}
	}
	if g >= 0 {
		a.stamp[g] = a.next
		a.next++
	}
	return g, nil
}

// BusLayout describes the physical shape of a bus in 2 mm tile hops.
type BusLayout interface {
	// BroadcastHops is the span a broadcast must cover (the max
	// core-to-core distance).
	BroadcastHops() int
	// ReqHops is the distance from a node to the central arbiter.
	ReqHops(node int) int
	// PathHops is the distance between two nodes along the bus wires —
	// what a dynamic-link point-to-point transfer covers.
	PathHops(a, b int) int
}

// SerpentineLayout is the scaled conventional bidirectional bus of
// Fig 15(d): nodes attach in dual-ported pairs along a snake over the
// tile grid (30-hop span for 64 nodes).
type SerpentineLayout struct {
	NodesN int
	Side   int
}

// NewSerpentine lays out n nodes on a √n grid.
func NewSerpentine(n int) SerpentineLayout {
	return SerpentineLayout{NodesN: n, Side: gridSide(n)}
}

// tap returns the bus tap index of a node.
func (s SerpentineLayout) tap(node int) int {
	y := node / s.Side
	x := node % s.Side
	if y%2 == 1 {
		x = s.Side - 1 - x
	}
	return (y*s.Side + x) / 2
}

// BroadcastHops implements BusLayout: nodes/2 − 2 (30 for 64 nodes).
func (s SerpentineLayout) BroadcastHops() int {
	h := s.NodesN/2 - 2
	if h < 1 {
		h = 1
	}
	return h
}

// ReqHops implements BusLayout: distance to the mid-bus arbiter.
func (s SerpentineLayout) ReqHops(node int) int {
	mid := s.BroadcastHops() / 2
	d := s.tap(node) - mid
	if d < 0 {
		d = -d
	}
	return d
}

// PathHops implements BusLayout.
func (s SerpentineLayout) PathHops(a, b int) int {
	d := s.tap(a) - s.tap(b)
	if d < 0 {
		d = -d
	}
	return d
}

// HTreeLayout is CryoBus's H-tree-shaped bus (§5.2.1): a 3-level
// quadtree over the tile grid whose hubs sit at block centers. Leaf to
// root is 6 hops (1+2+3), so the maximum leaf-to-leaf span is 12 hops —
// 2.5× shorter than the serpentine — and every contiguous segment is
// ≤6 mm (the Fig 10 validation length).
type HTreeLayout struct {
	NodesN int
	Side   int
}

// NewHTree lays out n nodes (n must give a square grid).
func NewHTree(n int) HTreeLayout {
	return HTreeLayout{NodesN: n, Side: gridSide(n)}
}

// levelHops are the per-level climb costs: leaf→L1 hub, L1→L2, L2→root.
var levelHops = [3]int{1, 2, 3}

// BroadcastHops implements BusLayout: up to the root and down — 12.
func (h HTreeLayout) BroadcastHops() int {
	total := 0
	for _, v := range levelHops {
		total += v
	}
	return 2 * total
}

// ReqHops implements BusLayout: every leaf is 6 hops from the central
// arbiter at the root.
func (h HTreeLayout) ReqHops(int) int {
	total := 0
	for _, v := range levelHops {
		total += v
	}
	return total
}

// quad returns the node's block index at quadtree level l (0 = 2×2
// blocks, 1 = 4×4 quadrants).
func (h HTreeLayout) quad(node, l int) int {
	x, y := node%h.Side, node/h.Side
	shift := l + 1
	return (y>>shift)*(h.Side>>shift) + (x >> shift)
}

// PathHops implements BusLayout: climb to the lowest common hub and
// descend.
func (h HTreeLayout) PathHops(a, b int) int {
	if a == b {
		return 0
	}
	if h.quad(a, 0) == h.quad(b, 0) {
		return 2 * levelHops[0]
	}
	if h.quad(a, 1) == h.quad(b, 1) {
		return 2 * (levelHops[0] + levelHops[1])
	}
	return h.BroadcastHops()
}

// BusConfig assembles a complete shared-bus design.
type BusConfig struct {
	Name   string
	Nodes  int
	Layout BusLayout
	Timing Timing
	// ControlCycles is the extra cycle CryoBus spends distributing
	// cross-link switch settings with the grant (§5.2.2, ③).
	ControlCycles int
	// DynamicLinks enables point-to-point transfers over only the links
	// on the source→destination path (data responses); without it every
	// transfer drives the whole bus.
	DynamicLinks bool
}

// busQueueCap bounds each node's outstanding request queue.
const busQueueCap = 16

// queuedPkt is a packet in a node's bus queue: its slab index, how many
// of its transfers arrived corrupted so far (its NACK state), and the
// first cycle the arbiter sees its request: once the request has
// crossed the request wires and, after a NACK, once the retransmit
// backoff has elapsed.
type queuedPkt struct {
	visibleAt int64
	pkt       int32
	attempts  int32
}

// Bus is a cycle-level snooping-bus simulator: requests travel on
// dedicated request wires to the central matrix arbiter; the granted
// node's transfer occupies the shared wires for its serialization time;
// delivery completes when the broadcast (or dynamic-link transfer)
// reaches the far end.
type Bus struct {
	cfg    BusConfig
	arb    *MatrixArbiter
	queues []ring[queuedPkt]
	queued int // packets across all queues; Step idles at 0
	// waiting has bit i of word i/64 set while node i's queue is
	// non-empty, so arbitration visits only the nodes with a request.
	waiting []uint64
	// reqMask is arbitration scratch: the waiting nodes whose head is
	// visible at the arbiter this cycle.
	reqMask []uint64
	// reqCycles[i] is node i's request-wire flight time in cycles over
	// the current (possibly degraded) layout.
	reqCycles []int
	now       int64
	busFree   int64
	inflight  []busInflight
	// pkts holds every queued and in-flight packet.
	pkts   slab
	stats  Stats
	energy Energy
	inj    *fault.Injector
	domain string
	// OnDeliver, when set, receives delivered packets instead of the
	// internal stats (used by composite networks such as the hybrid).
	OnDeliver func(p Packet, now int64)
}

type busInflight struct {
	deliverAt int64
	pkt       int32
}

// NewBus builds the bus.
func NewBus(cfg BusConfig) *Bus {
	b := &Bus{
		cfg:     cfg,
		arb:     NewMatrixArbiter(cfg.Nodes),
		queues:  make([]ring[queuedPkt], cfg.Nodes),
		waiting: make([]uint64, maskWords(cfg.Nodes)),
		reqMask: make([]uint64, maskWords(cfg.Nodes)),
	}
	b.tabulateReqCycles()
	return b
}

// tabulateReqCycles fills reqCycles from the layout.
func (b *Bus) tabulateReqCycles() {
	b.reqCycles = make([]int, b.cfg.Nodes)
	for i := range b.reqCycles {
		b.reqCycles[i] = b.cfg.Timing.WireCycles(b.cfg.Layout.ReqHops(i))
	}
}

// AttachInjector arms the bus with a fault scenario: the injector
// decides which layout segments are dead (the layout is rebuilt over
// the surviving topology, degrading broadcast timing), which transfers
// arrive corrupted, and which grant pulses are lost. The domain string
// namespaces this bus's fault pattern (defaults to the bus name). Must
// be called before traffic starts: it panics once a packet was injected
// or a cycle stepped, because a queued request's arrival at the
// arbiter is fixed at injection. A nil or inactive injector leaves the
// bus — and its cycle-exact behavior — untouched.
func (b *Bus) AttachInjector(inj *fault.Injector, domain string) {
	if b.now > 0 || b.queued > 0 {
		panic(fmt.Sprintf("noc: %s: AttachInjector after traffic started (cycle %d); attach faults before the first TryInject or Step", b.cfg.Name, b.now))
	}
	if inj == nil || !inj.Config().Active() {
		return
	}
	if domain == "" {
		domain = b.cfg.Name
	}
	b.inj = inj
	b.domain = domain
	switch l := b.cfg.Layout.(type) {
	case HTreeLayout:
		if d := degradeHTreeWith(l, inj, domain); d != nil {
			b.cfg.Layout = d
		}
	case SerpentineLayout:
		if d := degradeSerpentineWith(l, inj, domain); d != nil {
			b.cfg.Layout = d
		}
	}
	b.tabulateReqCycles()
}

// Layout exposes the (possibly degraded) bus layout.
func (b *Bus) Layout() BusLayout { return b.cfg.Layout }

// Name implements Network.
func (b *Bus) Name() string { return b.cfg.Name }

// Nodes implements Network.
func (b *Bus) Nodes() int { return b.cfg.Nodes }

// Cycle implements Network.
func (b *Bus) Cycle() int64 { return b.now }

// Stats implements Network.
func (b *Bus) Stats() *Stats { return &b.stats }

// Timing exposes the bus clocking.
func (b *Bus) Timing() Timing { return b.cfg.Timing }

// TryInject implements Network. A source outside the bus, or a
// destination outside it other than Broadcast, is a wiring bug and
// panics.
func (b *Bus) TryInject(p Packet) bool {
	if p.Src < 0 || p.Src >= b.cfg.Nodes {
		panic(fmt.Sprintf("noc: %s has no source node %d", b.cfg.Name, p.Src))
	}
	if p.Dst != Broadcast && (p.Dst < 0 || p.Dst >= b.cfg.Nodes) {
		panic(fmt.Sprintf("noc: %s has no node %d", b.cfg.Name, p.Dst))
	}
	q := &b.queues[p.Src]
	if q.n >= busQueueCap {
		return false
	}
	// InjectedAt is owned by the caller.
	*q.pushBack() = queuedPkt{visibleAt: p.InjectedAt + int64(b.reqCycles[p.Src]), pkt: b.pkts.hold(p)}
	b.queued++
	b.waiting[p.Src/64] |= 1 << (p.Src % 64)
	return true
}

// transferHops returns the wire span one transaction activates.
func (b *Bus) transferHops(p Packet) int {
	hops := b.cfg.Layout.BroadcastHops()
	if b.cfg.DynamicLinks && p.Dst != Broadcast {
		hops = b.cfg.Layout.PathHops(p.Src, p.Dst)
		if hops == 0 {
			hops = 1
		}
	}
	return hops
}

// transferCycles returns the bus occupancy of one transaction.
func (b *Bus) transferCycles(p Packet) int {
	c := b.cfg.Timing.WireCycles(b.transferHops(p))
	flits := p.Flits
	if flits < 1 {
		flits = 1
	}
	return c + flits - 1
}

// grantLatency returns request-wire + arbitration + grant-wire +
// control cycles for a node.
func (b *Bus) grantLatency(node int) int64 {
	req := b.reqCycles[node]
	return int64(req + 1 + req + b.cfg.ControlCycles)
}

// Step implements Network. A bus with nothing queued, nothing in flight
// and no fault injector (whose grant stalls fire on idle cycles too)
// changes no state but the clock, so it only advances the clock.
func (b *Bus) Step() {
	now := b.now
	if b.queued == 0 && len(b.inflight) == 0 && b.inj == nil {
		b.now++
		return
	}
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
	// Arbitration: one new owner whenever the bus is free, among the
	// requests visible at the arbiter.
	if b.busFree <= now {
		if b.inj.StallGrant(b.domain, now) {
			// The grant pulse is lost this cycle: requesters keep
			// waiting and re-arbitrate next cycle.
			b.stats.GrantStalls++
			b.now++
			return
		}
		for w, word := range b.waiting {
			var vis uint64
			for word != 0 {
				bit := word & -word
				word &^= bit
				i := w*64 + bits.TrailingZeros64(bit)
				if b.queues[i].front().visibleAt > now {
					continue
				}
				vis |= bit
			}
			b.reqMask[w] = vis
		}
		// reqMask is sized to the arbiter and holds only node bits by
		// construction, so Grant cannot fail.
		g, _ := b.arb.Grant(b.reqMask)
		if g >= 0 {
			e := b.queues[g].popFront()
			p := b.pkts.at[e.pkt]
			b.queued--
			if b.queues[g].n == 0 {
				b.waiting[g/64] &^= 1 << (g % 64)
			}
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
			grantLat := int64(1 + b.cfg.ControlCycles + b.reqCycles[g])
			start := now + grantLat
			b.busFree = now + tc
			attempts := int(e.attempts)
			if b.inj.CorruptTransfer(b.domain, p.ID, attempts) && attempts < b.inj.MaxRetries() {
				// The transfer arrived corrupted: the receivers NACK it
				// and the source retransmits after an exponential
				// backoff. The corrupted attempt still occupied the bus
				// and drove the wires.
				b.stats.Retransmits++
				// The backoff ends after the request-wire flight the
				// packet has already made, so it alone sets visibility.
				e.attempts++
				e.visibleAt = now + tc + b.inj.Backoff(attempts+1)
				b.queues[g].pushFront(e)
				b.queued++
				b.waiting[g/64] |= 1 << (g % 64)
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

// ZeroLoadLatency implements Network: average over nodes of request +
// arbitration + grant + control + broadcast.
func (b *Bus) ZeroLoadLatency() float64 {
	total := 0.0
	for n := 0; n < b.cfg.Nodes; n++ {
		p := Packet{Src: n, Dst: Broadcast, Flits: 1}
		total += float64(b.grantLatency(n)) + float64(b.transferCycles(p))
	}
	return total / float64(b.cfg.Nodes)
}

// Breakdown returns the zero-load latency components in cycles for a
// representative (average-distance) node — the Fig 20 decomposition.
func (b *Bus) Breakdown() (request, arbitration, grantAndControl, broadcast float64) {
	var reqSum float64
	for _, c := range b.reqCycles {
		reqSum += float64(c)
	}
	request = reqSum / float64(b.cfg.Nodes)
	arbitration = 1
	grantAndControl = request + float64(b.cfg.ControlCycles)
	broadcast = float64(b.cfg.Timing.WireCycles(b.cfg.Layout.BroadcastHops()))
	return request, arbitration, grantAndControl, broadcast
}

// --- Standard bus designs -------------------------------------------------

// NewSharedBus300 returns the conventional serpentine bus at 300 K.
func NewSharedBus300(nodes int, t Timing) *Bus {
	return NewBus(BusConfig{Name: "300K Shared bus", Nodes: nodes, Layout: NewSerpentine(nodes), Timing: t})
}

// NewSharedBus77 returns the serpentine bus with 77 K wires.
func NewSharedBus77(nodes int, t Timing) *Bus {
	return NewBus(BusConfig{Name: "77K Shared bus", Nodes: nodes, Layout: NewSerpentine(nodes), Timing: t})
}

// NewHTreeBus300 returns the H-tree topology at 300 K (topology-only
// ablation of Fig 20).
func NewHTreeBus300(nodes int, t Timing) *Bus {
	return NewBus(BusConfig{Name: "300K H-tree bus", Nodes: nodes, Layout: NewHTree(nodes), Timing: t, ControlCycles: 1, DynamicLinks: true})
}

// NewCryoBus returns the full CryoBus: H-tree topology, dynamic link
// connection (1 extra control cycle, point-to-point data transfers) on
// 77 K wires.
func NewCryoBus(nodes int, t Timing) *Bus {
	return NewBus(BusConfig{Name: "CryoBus", Nodes: nodes, Layout: NewHTree(nodes), Timing: t, ControlCycles: 1, DynamicLinks: true})
}

// InterleavedBus is k address-interleaved buses (§7.1): transactions
// are striped across buses by address, multiplying bandwidth while
// keeping each bus's snooping protocol intact.
type InterleavedBus struct {
	name  string
	buses []*Bus
	stats Stats
}

// NewInterleavedBus stripes k copies of the given bus design.
func NewInterleavedBus(k int, mk func() *Bus) *InterleavedBus {
	ib := &InterleavedBus{}
	for i := 0; i < k; i++ {
		ib.buses = append(ib.buses, mk())
	}
	ib.name = fmt.Sprintf("%s (%d-way)", ib.buses[0].Name(), k)
	return ib
}

// Nodes implements Network.
func (ib *InterleavedBus) Nodes() int { return ib.buses[0].Nodes() }

// Cycle implements Network.
func (ib *InterleavedBus) Cycle() int64 { return ib.buses[0].Cycle() }

// Stats implements Network: aggregated over the stripes.
func (ib *InterleavedBus) Stats() *Stats {
	agg := Stats{}
	for _, b := range ib.buses {
		s := b.Stats()
		agg.Delivered += s.Delivered
		agg.TotalLatency += s.TotalLatency
		agg.Retransmits += s.Retransmits
		agg.GrantStalls += s.GrantStalls
		if s.MaxLatency > agg.MaxLatency {
			agg.MaxLatency = s.MaxLatency
		}
	}
	return &agg
}

// TryInject implements Network: the packet's address (ID at this
// abstraction) picks the stripe.
func (ib *InterleavedBus) TryInject(p Packet) bool {
	idx := int(p.ID) % len(ib.buses)
	if idx < 0 {
		idx = -idx
	}
	return ib.buses[idx].TryInject(p)
}

// Step implements Network.
func (ib *InterleavedBus) Step() {
	for _, b := range ib.buses {
		b.Step()
	}
}

// SetOnDeliver installs a delivery hook on every stripe.
func (ib *InterleavedBus) SetOnDeliver(f func(p Packet, now int64)) {
	for _, b := range ib.buses {
		b.OnDeliver = f
	}
}

// AttachInjector arms every stripe with the fault scenario, each under
// its own sub-domain so physically distinct stripes fail independently.
func (ib *InterleavedBus) AttachInjector(inj *fault.Injector, domain string) {
	if domain == "" {
		domain = ib.name
	}
	for i, b := range ib.buses {
		b.AttachInjector(inj, fmt.Sprintf("%s/stripe%d", domain, i))
	}
}

// Stripes exposes the per-stripe buses (read-only use).
func (ib *InterleavedBus) Stripes() []*Bus { return ib.buses }

// ZeroLoadLatency implements Network (same as a single stripe).
func (ib *InterleavedBus) ZeroLoadLatency() float64 {
	return ib.buses[0].ZeroLoadLatency()
}

// saturationFactor is the multiple of zero-load latency beyond which a
// sweep declares the network saturated (SaturationLatency floors the
// cut-off at 50 cycles).
const saturationFactor = 25.0

// SaturationLatency returns the sweep cut-off for a network.
func SaturationLatency(n Network) float64 {
	z := n.ZeroLoadLatency()
	if z < 1 {
		z = 1
	}
	return math.Max(50, saturationFactor*z)
}
