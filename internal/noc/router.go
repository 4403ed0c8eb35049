package noc

import (
	"fmt"
	"math/bits"
)

// arrival is a queued packet with the cycle it becomes visible to the
// router (covers router pipeline + link traversal) and its next hop
// there, computed once when the packet is queued.
type arrival struct {
	p       *Packet
	readyAt int64
	out     int // output link at the holding router; -1 ejects here
}

// rlink is a directed router-to-router link.
type rlink struct {
	to         int // destination router
	wireCycles int // link traversal time
	tileHops   int // physical length in tile hops (energy accounting)
	dstPort    int // input port index at the destination router
}

// port is an input buffer (per incoming link, plus one injection port).
// The queue is a ring deque rather than an appended-and-resliced slice:
// occupancy is credit-bounded by inCap, so after the ring grows to the
// credit ceiling once, enqueue/dequeue never allocate again — this was
// the NoC's dominant steady-state allocation site. A packet holds its
// slot from the upstream send (see Step), so the queue length is the
// credit count.
type port struct {
	buf  []arrival // ring storage; len is always a power of two
	head int       // index of the queue front
	n    int       // live entries
}

func (pt *port) occupancy() int { return pt.n }

// front returns the queue head; valid only when n > 0.
func (pt *port) front() *arrival { return &pt.buf[pt.head] }

func (pt *port) push(a arrival) {
	if pt.n == len(pt.buf) {
		pt.grow()
	}
	pt.buf[(pt.head+pt.n)&(len(pt.buf)-1)] = a
	pt.n++
}

func (pt *port) pop() arrival {
	a := pt.buf[pt.head]
	pt.buf[pt.head] = arrival{} // drop the packet reference
	pt.head = (pt.head + 1) & (len(pt.buf) - 1)
	pt.n--
	return a
}

// grow doubles the ring (minimum 4 slots), unwrapping entries to the
// front so the mask arithmetic stays valid.
func (pt *port) grow() {
	size := 2 * len(pt.buf)
	if size < 4 {
		size = 4
	}
	nb := make([]arrival, size)
	for i := 0; i < pt.n; i++ {
		nb[i] = pt.buf[(pt.head+i)&(len(pt.buf)-1)]
	}
	pt.buf = nb
	pt.head = 0
}

// router is one node of a router-based network.
type router struct {
	links   []rlink
	ports   []port
	rr      []int // round-robin arbiter state per output link
	outBusy []int64
	live    int // queued packets across all ports; Step skips a router at 0
}

// maxPorts bounds a router's input ports: Step's switch allocator keeps
// one requester bit per input port in a uint64.
const maxPorts = 64

// ejectHop marks the router-local destination in RouterNet.nextHop.
const ejectHop = 0xFF

// RouterNet is a generic input-queued, credit-flow-controlled,
// packet-level router network. Mesh, CMesh and Flattened Butterfly are
// instances with different link sets and routing functions.
type RouterNet struct {
	name    string
	nodes   int
	conc    int // nodes concentrated per router
	routers []router
	// route returns the output link index at router cur toward router
	// dst (cur != dst). finish tabulates it into nextHop, which is all
	// the cycle loop and the analytics read.
	route func(cur, dst int) int
	// nextHop[cur*len(routers)+dst] is route(cur, dst), or ejectHop
	// when cur == dst.
	nextHop []uint8
	// want is Step's switch-allocation scratch: bit pi of want[li] is
	// set while input port pi's head is ready and bound for link li.
	want   []uint64
	timing Timing
	now    int64
	stats  Stats
	inCap  int
	// zeroLoad caches the analytic zero-load latency.
	zeroLoad float64
	// OnDeliver, when set, receives delivered packets instead of the
	// internal stats (used by composite networks such as the hybrid).
	OnDeliver func(p *Packet, now int64)
	energy    Energy
}

// deliver routes a completed packet to the hook or the stats.
func (rn *RouterNet) deliver(p *Packet, now int64) {
	if rn.OnDeliver != nil {
		rn.OnDeliver(p, now)
		return
	}
	rn.stats.Record(p, now)
}

// Name implements Network.
func (rn *RouterNet) Name() string { return rn.name }

// Nodes implements Network.
func (rn *RouterNet) Nodes() int { return rn.nodes }

// Cycle implements Network.
func (rn *RouterNet) Cycle() int64 { return rn.now }

// Stats implements Network.
func (rn *RouterNet) Stats() *Stats { return &rn.stats }

// Timing exposes the network clocking.
func (rn *RouterNet) Timing() Timing { return rn.timing }

// nodeRouter maps a node to its router.
func (rn *RouterNet) nodeRouter(node int) int { return node / rn.conc }

// addLink wires a directed link of the given physical length and
// allocates the input port at the destination.
func (rn *RouterNet) addLink(from, to, wireCycles, tileHops int) {
	dst := &rn.routers[to]
	if len(dst.ports) == maxPorts {
		panic(fmt.Sprintf("noc: %s router %d would get more than %d input ports (one switch-allocation mask bit each)", rn.name, to, maxPorts))
	}
	src := &rn.routers[from]
	if len(src.links) == ejectHop {
		panic(fmt.Sprintf("noc: %s router %d would get more than %d output links", rn.name, from, ejectHop))
	}
	dst.ports = append(dst.ports, port{})
	src.links = append(src.links, rlink{to: to, wireCycles: wireCycles, tileHops: tileHops, dstPort: len(dst.ports) - 1})
	src.rr = append(src.rr, 0)
	src.outBusy = append(src.outBusy, 0)
}

// outFor returns p's output link at router ri, or -1 when p ejects
// there.
func (rn *RouterNet) outFor(ri int, p *Packet) int {
	hop := rn.nextHop[ri*len(rn.routers)+rn.nodeRouter(p.Dst)]
	if hop == ejectHop {
		return -1
	}
	return int(hop)
}

// TryInject implements Network.
func (rn *RouterNet) TryInject(p *Packet) bool {
	if p.Dst == Broadcast {
		panic("noc: router-based networks carry no broadcasts (directory protocol); use a bus")
	}
	if p.Dst < 0 || p.Dst >= rn.nodes {
		panic(fmt.Sprintf("noc: %s has no node %d", rn.name, p.Dst))
	}
	if p.Src < 0 || p.Src >= rn.nodes {
		panic(fmt.Sprintf("noc: %s has no source node %d", rn.name, p.Src))
	}
	ri := rn.nodeRouter(p.Src)
	r := &rn.routers[ri]
	inj := &r.ports[0]
	if inj.occupancy() >= rn.inCap {
		return false
	}
	// InjectedAt is owned by the caller (it may predate this cycle when
	// the packet waited in a source queue).
	inj.push(arrival{p: p, readyAt: rn.now, out: rn.outFor(ri, p)})
	r.live++
	return true
}

// Step implements Network: one cycle of routing, switch arbitration and
// link traversal across all routers. Work is done only where packets
// are: a router with nothing queued changes no state and is skipped,
// and each queued packet carries its next hop, so allocation compares
// ints instead of re-routing every head for every output link.
func (rn *RouterNet) Step() {
	now := rn.now
	want := rn.want
	for ri := range rn.routers {
		r := &rn.routers[ri]
		if r.live == 0 {
			continue
		}
		// Ejection first: deliver any head packet destined here. The
		// ejection port is modeled with infinite sink bandwidth per
		// router cycle for each input port. A delivery hook may inject
		// into this router's port 0, so requests are gathered after.
		for pi := range r.ports {
			pt := &r.ports[pi]
			for pt.n > 0 && pt.front().readyAt <= now && pt.front().out < 0 {
				rn.deliver(pt.front().p, now)
				pt.pop()
				r.live--
			}
		}
		for pi := range r.ports {
			pt := &r.ports[pi]
			if pt.n > 0 {
				if h := pt.front(); h.readyAt <= now && h.out >= 0 {
					want[h.out] |= 1 << pi
				}
			}
		}
		// Switch allocation: one grant per output link per cycle, in
		// link order, round-robin over the requesting input ports.
		n := len(r.ports)
		for li := range r.links {
			m := want[li]
			if m == 0 {
				continue
			}
			want[li] = 0
			if r.outBusy[li] > now {
				continue
			}
			lnk := r.links[li]
			dpt := &rn.routers[lnk.to].ports[lnk.dstPort]
			if dpt.occupancy() >= rn.inCap {
				continue // no credit downstream
			}
			// First requester at or after the arbiter pointer, wrapping.
			granted := bits.TrailingZeros64(m)
			if above := m >> uint(r.rr[li]); above != 0 {
				granted = r.rr[li] + bits.TrailingZeros64(above)
			}
			pt := &r.ports[granted]
			a := pt.pop()
			r.live--
			r.rr[li] = (granted + 1) % n
			// The port's new head competes for a later link this cycle;
			// links up to li have had their turn.
			if pt.n > 0 {
				if h := pt.front(); h.readyAt <= now && h.out > li {
					want[h.out] |= 1 << granted
				}
			}
			flits := a.p.Flits
			if flits < 1 {
				flits = 1
			}
			r.outBusy[li] = now + int64(flits)
			rn.energy.RouterTraversals++
			rn.energy.BufferWrites++
			rn.energy.WireMMFlits += float64(lnk.tileHops) * tileMM * float64(flits)
			// The packet becomes visible downstream after the router
			// pipeline and the wire flight time; the buffer slot is
			// held from the send (conservative credit accounting).
			lat := int64(rn.timing.RouterCycles + lnk.wireCycles)
			if lat < 1 {
				lat = 1
			}
			dpt.push(arrival{p: a.p, readyAt: now + lat, out: rn.outFor(lnk.to, a.p)})
			rn.routers[lnk.to].live++
		}
	}
	rn.now++
}

// ZeroLoadLatency implements Network: the all-pairs average of
// contention-free path latency (router pipeline + wire cycles per hop),
// including the final ejection cycle.
func (rn *RouterNet) ZeroLoadLatency() float64 {
	return rn.zeroLoad
}

// finish tabulates route into nextHop, sizes Step's allocation scratch
// and computes the zero-load latency. Every constructor calls it once,
// after adding the links and setting route.
func (rn *RouterNet) finish() {
	nr := len(rn.routers)
	rn.nextHop = make([]uint8, nr*nr)
	maxLinks := 0
	for cur := range rn.routers {
		maxLinks = max(maxLinks, len(rn.routers[cur].links))
		for dst := 0; dst < nr; dst++ {
			hop := uint8(ejectHop)
			if cur != dst {
				li := rn.route(cur, dst)
				if li < 0 || li >= len(rn.routers[cur].links) {
					panic(fmt.Sprintf("noc: %s routes %d→%d over missing link %d", rn.name, cur, dst, li))
				}
				hop = uint8(li) // addLink keeps li below ejectHop
			}
			rn.nextHop[cur*nr+dst] = hop
		}
	}
	rn.want = make([]uint64, maxLinks)
	rn.computeZeroLoad()
}

// computeZeroLoad averages every ordered router pair's path cost plus
// the ejection cycle. For each destination it fills cost[r], router r's
// path cost, from its next hop's cost (memoized), so the whole table
// takes O(routers²) instead of a walk per pair. Path costs are small
// integers, so the integer total equals the per-pair float sum exactly.
func (rn *RouterNet) computeZeroLoad() {
	nr := len(rn.routers)
	if nr < 2 {
		return
	}
	cost := make([]int, nr)
	path := make([]int, 0, nr)
	total := 0
	for d := 0; d < nr; d++ {
		for r := range cost {
			cost[r] = -1
		}
		cost[d] = 0
		for s := 0; s < nr; s++ {
			// Walk toward d until a router with a known cost, then
			// assign costs back along the walk.
			cur := s
			for cost[cur] < 0 {
				if len(path) == nr {
					panic(fmt.Sprintf("noc: routing loop in %s toward router %d", rn.name, d))
				}
				path = append(path, cur)
				cur = rn.routers[cur].links[rn.nextHop[cur*nr+d]].to
			}
			for k := len(path) - 1; k >= 0; k-- {
				r := path[k]
				lnk := rn.routers[r].links[rn.nextHop[r*nr+d]]
				cost[r] = cost[lnk.to] + max(1, rn.timing.RouterCycles+lnk.wireCycles)
			}
			path = path[:0]
			if s != d {
				total += cost[s] + 1 // +1 ejection
			}
		}
	}
	rn.zeroLoad = float64(total) / float64(nr*(nr-1))
}

// defaultInputCap is the per-port buffering: 4 VCs × 3 flit-buffers as
// in the Table 4 router configuration, at packet granularity.
const defaultInputCap = 12

// newRouterNet allocates the shell; callers add links, set route and
// call finish.
func newRouterNet(name string, nodes, conc int, timing Timing) *RouterNet {
	nr := nodes / conc
	rn := &RouterNet{
		name:   name,
		nodes:  nodes,
		conc:   conc,
		timing: timing,
		inCap:  defaultInputCap,
	}
	rn.routers = make([]router, nr)
	for i := range rn.routers {
		// Port 0 is the injection port (shared by concentrated nodes).
		rn.routers[i].ports = append(rn.routers[i].ports, port{})
	}
	return rn
}
