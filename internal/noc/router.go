package noc

import (
	"fmt"
	"math/bits"
)

// arrival is a queued packet with the cycle it becomes visible to the
// router (covers router pipeline + link traversal) and its next hop
// there, computed once when the packet is queued. The destination
// router is resolved once, at injection.
type arrival struct {
	p       *Packet
	readyAt int64
	dst     int32 // destination router
	out     int32 // output link at the holding router; -1 ejects here
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
	occ     uint64 // bit pi is set while ports[pi] holds a packet
	rr      []int  // round-robin arbiter state per output link
	outBusy []int64
}

// maxPorts bounds a router's input ports and maxLinks its output links:
// Step keeps one bit per input port, and one per output link, in a
// uint64.
const maxPorts, maxLinks = 64, 64

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
	// set while input port pi's head is ready and bound for link li,
	// and bit li of wantLinks while want[li] is non-zero.
	want      []uint64
	wantLinks uint64
	// due is Step's schedule, a timing wheel of router bitsets: bit ri
	// of slot t&dueMask (dueWords words from index slot*dueWords) is
	// set when router ri must be visited at cycle t. Every input-port
	// head is scheduled at its readyAt, or at the next cycle Step runs
	// when it is already ready, so Step visits only routers that can
	// move a packet. The wheel has more slots than the longest
	// router-plus-wire latency, the furthest ahead a head can be.
	due      []uint64
	dueMask  int64
	dueWords int
	// cur is the router Step is visiting, -1 outside Step. TryInject
	// reads it to tell whether this cycle's visit to a router is past.
	cur    int
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
	if len(src.links) == maxLinks {
		panic(fmt.Sprintf("noc: %s router %d would get more than %d output links (one switch-allocation mask bit each)", rn.name, from, maxLinks))
	}
	dst.ports = append(dst.ports, port{})
	src.links = append(src.links, rlink{to: to, wireCycles: wireCycles, tileHops: tileHops, dstPort: len(dst.ports) - 1})
	src.rr = append(src.rr, 0)
	src.outBusy = append(src.outBusy, 0)
}

// outFor returns the output link at router ri toward router dst, or -1
// when the packet ejects there.
func (rn *RouterNet) outFor(ri int, dst int32) int32 {
	hop := rn.nextHop[ri*len(rn.routers)+int(dst)]
	if hop == ejectHop {
		return -1
	}
	return int32(hop)
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
	dst := int32(rn.nodeRouter(p.Dst))
	out := rn.outFor(ri, dst)
	if inj.n == 0 {
		// The packet is the port's new head, ready now. Step has
		// already scanned port 0 of the routers up to the one it is
		// visiting, so there it is due next cycle; at the router being
		// visited (a delivery hook injecting) it still requests its
		// link this cycle, as a scan after the ejections would have.
		at := rn.now
		if ri <= rn.cur {
			at++
			if ri == rn.cur && out >= 0 {
				rn.want[out] |= 1
				rn.wantLinks |= 1 << out
			}
		}
		rn.wake(ri, at)
	}
	inj.push(arrival{p: p, readyAt: rn.now, dst: dst, out: out})
	r.occ |= 1
	return true
}

// wake schedules router ri for a visit at cycle at, which must lie
// within the wheel: rn.now ≤ at < rn.now+len(due)/dueWords.
func (rn *RouterNet) wake(ri int, at int64) {
	rn.due[int(at&rn.dueMask)*rn.dueWords+ri>>6] |= 1 << uint(ri&63)
}

// Step implements Network: one cycle of routing, switch arbitration and
// link traversal. Work is done only where packets are ready: Step
// visits, in ascending index order, the routers in this cycle's slot
// of the due wheel, which holds every router with a head whose readyAt
// has come. A router not in the slot has no ready head, so visiting it
// would change no state. Each queued packet carries its next hop, so
// allocation compares ints instead of re-routing every head for every
// output link.
func (rn *RouterNet) Step() {
	now := rn.now
	want := rn.want
	slot := rn.due[int(now&rn.dueMask)*rn.dueWords:][:rn.dueWords]
	// The slot is re-read after every visit: a delivery hook's
	// TryInject may add a router above the current one, which is then
	// visited this cycle, as the full walk would have.
	for w := range slot {
		for slot[w] != 0 {
			ri := w<<6 | bits.TrailingZeros64(slot[w])
			slot[w] &= slot[w] - 1
			rn.cur = ri
			rn.visit(ri, now, want)
		}
	}
	rn.cur = -1
	rn.now++
}

// visit runs one router's cycle and keeps its schedule: every head it
// leaves behind is woken at its readyAt, or next cycle if it is ready
// but was not served.
func (rn *RouterNet) visit(ri int, now int64, want []uint64) {
	r := &rn.routers[ri]
	// Ejection first: deliver any head packet destined here. The
	// ejection port is modeled with infinite sink bandwidth per router
	// cycle for each input port. The occupied ports are visited in
	// ascending order. The head left behind requests its output link,
	// or is woken when it becomes ready. A delivery hook can inject
	// only into port 0, visited first; when it injects into an empty
	// port 0 here, TryInject requests for it, as a gather after all
	// ejections would have.
	for occ := r.occ; occ != 0; occ &= occ - 1 {
		pi := bits.TrailingZeros64(occ)
		pt := &r.ports[pi]
		for pt.n > 0 {
			h := pt.front()
			if h.readyAt > now {
				rn.wake(ri, h.readyAt)
				break
			}
			if h.out >= 0 {
				want[h.out] |= 1 << pi
				rn.wantLinks |= 1 << h.out
				break
			}
			rn.deliver(h.p, now)
			pt.pop()
		}
		if pt.n == 0 {
			r.occ &^= 1 << pi
		}
	}
	// Switch allocation: one grant per output link per cycle, in link
	// order, round-robin over the requesting input ports. The requested
	// links are taken lowest first, and a request made here is for a
	// higher link, so the order is ascending. A ready head left without
	// a grant is due again next cycle.
	again := false
	n := len(r.ports)
	for rn.wantLinks != 0 {
		li := bits.TrailingZeros64(rn.wantLinks)
		rn.wantLinks &= rn.wantLinks - 1
		m := want[li]
		want[li] = 0
		if r.outBusy[li] > now {
			again = true
			continue
		}
		lnk := r.links[li]
		down := &rn.routers[lnk.to]
		dpt := &down.ports[lnk.dstPort]
		if dpt.occupancy() >= rn.inCap {
			again = true
			continue // no credit downstream
		}
		// First requester at or after the arbiter pointer, wrapping.
		granted := bits.TrailingZeros64(m)
		if above := m >> uint(r.rr[li]); above != 0 {
			granted = r.rr[li] + bits.TrailingZeros64(above)
		}
		if m&^(1<<granted) != 0 {
			again = true // lost arbitration
		}
		pt := &r.ports[granted]
		a := pt.pop()
		r.rr[li] = granted + 1
		if r.rr[li] == n {
			r.rr[li] = 0
		}
		// The port's new head competes for a later link this cycle;
		// links up to li have had their turn.
		if pt.n == 0 {
			r.occ &^= 1 << granted
		} else {
			h := pt.front()
			switch {
			case h.readyAt > now:
				rn.wake(ri, h.readyAt)
			case int(h.out) > li:
				want[h.out] |= 1 << granted
				rn.wantLinks |= 1 << h.out
			default:
				again = true
			}
		}
		flits := max(a.p.Flits, 1)
		r.outBusy[li] = now + int64(flits)
		rn.energy.RouterTraversals++
		rn.energy.BufferWrites++
		rn.energy.WireMMFlits += float64(lnk.tileHops) * tileMM * float64(flits)
		// The packet becomes visible downstream after the router
		// pipeline and the wire flight time; the buffer slot is held
		// from the send (conservative credit accounting).
		lat := int64(rn.timing.RouterCycles + lnk.wireCycles)
		if lat < 1 {
			lat = 1
		}
		if dpt.n == 0 {
			rn.wake(lnk.to, now+lat)
		}
		a.readyAt = now + lat
		a.out = rn.outFor(lnk.to, a.dst)
		dpt.push(a)
		down.occ |= 1 << lnk.dstPort
	}
	if again {
		rn.wake(ri, now+1)
	}
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
	rn.sizeSchedule()
	rn.computeZeroLoad()
}

// sizeSchedule allocates the due wheel: a power-of-two slot count above
// the longest router-plus-wire latency, so a packet sent this cycle is
// scheduled in a slot other than the one Step is walking.
func (rn *RouterNet) sizeSchedule() {
	maxLat := 1
	for ri := range rn.routers {
		for _, lnk := range rn.routers[ri].links {
			maxLat = max(maxLat, rn.timing.RouterCycles+lnk.wireCycles)
		}
	}
	slots := 2
	for slots <= maxLat {
		slots *= 2
	}
	rn.dueWords = (len(rn.routers) + 63) / 64
	rn.dueMask = int64(slots - 1)
	rn.due = make([]uint64, slots*rn.dueWords)
}

// computeZeroLoad averages every ordered router pair's path cost plus
// the ejection cycle. For each destination it fills cost[r], router r's
// path cost, from its next hop's cost (memoized), so the whole table
// takes O(routers²) instead of a walk per pair. Path costs are small
// integers, so the integer total equals the per-pair float sum exactly.
// The walks toward one destination read a destination-major copy of
// nextHop, one contiguous row, rather than a column strided by the
// router count. The copy is made in square tiles, so that the rows it
// reads and the rows it writes both stay in cache.
func (rn *RouterNet) computeZeroLoad() {
	nr := len(rn.routers)
	if nr < 2 {
		return
	}
	toward := make([]uint8, nr*nr) // toward[d*nr+r] = nextHop[r*nr+d]
	const tile = 32
	for r0 := 0; r0 < nr; r0 += tile {
		for d0 := 0; d0 < nr; d0 += tile {
			for r := r0; r < min(r0+tile, nr); r++ {
				for d := d0; d < min(d0+tile, nr); d++ {
					toward[d*nr+r] = rn.nextHop[r*nr+d]
				}
			}
		}
	}
	cost := make([]int, nr)
	path := make([]int, 0, nr)
	total := 0
	for d := 0; d < nr; d++ {
		next := toward[d*nr : (d+1)*nr]
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
				cur = rn.routers[cur].links[next[cur]].to
			}
			for k := len(path) - 1; k >= 0; k-- {
				r := path[k]
				lnk := rn.routers[r].links[next[r]]
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
		cur:    -1,
	}
	rn.routers = make([]router, nr)
	for i := range rn.routers {
		// Port 0 is the injection port (shared by concentrated nodes).
		rn.routers[i].ports = append(rn.routers[i].ports, port{})
	}
	return rn
}
