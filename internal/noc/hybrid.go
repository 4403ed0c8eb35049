package noc

import "fmt"

// HybridCryoBus is the 256-core directory-based hybrid of §7.3
// (Fig 26a): four 64-core CryoBus clusters joined by a small global
// mesh of gateway routers. Snooping is given up (all transfers are
// directed), but intra-cluster traffic keeps CryoBus's 1-cycle
// transfers and inter-cluster traffic crosses at most the global mesh.
type HybridCryoBus struct {
	name     string
	clusters []*Bus
	global   *RouterNet
	now      int64
	stats    Stats
	// Leg packets that hit back-pressure wait here in arrival order:
	// toGlobal[ci] for gateway router ci's injection port, toCluster[cj]
	// for the gateway node's queue on cluster cj's bus.
	toGlobal, toCluster [4]pktq
	// phase1 maps in-flight leg packets back to their originals.
	phase1 map[*Packet]*Packet
}

// clusterSize is the CryoBus scalability unit.
const clusterSize = 64

// gatewayNode is the cluster-local node adjacent to the root hub that
// bridges onto the global mesh.
const gatewayNode = 27 // center-adjacent tile of the 8×8 grid

// NewHybridCryoBus builds the 4-cluster, 256-node hybrid with the
// given bus and mesh timing (normally both 77 K).
func NewHybridCryoBus(busTiming, meshTiming Timing) *HybridCryoBus {
	h := &HybridCryoBus{name: "Hybrid CryoBus-256", phase1: make(map[*Packet]*Packet)}
	for i := 0; i < 4; i++ {
		h.clusters = append(h.clusters, NewCryoBus(clusterSize, busTiming))
	}
	// Global mesh: 2×2 gateway routers, one per cluster, spaced a full
	// cluster die apart (8 tiles).
	g := newRouterNet("global-mesh", 4, 1, meshTiming)
	hopCyc := meshTiming.WireCycles(8)
	link := make([]map[int]int, 4)
	for r := 0; r < 4; r++ {
		link[r] = make(map[int]int)
	}
	add := func(a, b int) {
		link[a][b] = len(g.routers[a].links)
		g.addLink(a, b, hopCyc, 8)
	}
	// 2×2 torus-free mesh: 0-1, 2-3 rows; 0-2, 1-3 columns.
	add(0, 1)
	add(1, 0)
	add(2, 3)
	add(3, 2)
	add(0, 2)
	add(2, 0)
	add(1, 3)
	add(3, 1)
	g.route = func(cur, dst int) int {
		cx, cy := cur%2, cur/2
		dx, dy := dst%2, dst/2
		if dx != cx {
			return link[cur][cy*2+dx]
		}
		if dy != cy {
			return link[cur][dy*2+cx]
		}
		panic("hybrid: route called with cur == dst")
	}
	g.finish()
	h.global = g

	// Phase hand-offs.
	for ci, c := range h.clusters {
		ci := ci
		c.OnDeliver = func(p *Packet, now int64) { h.clusterDelivered(ci, p, now) }
	}
	g.OnDeliver = func(p *Packet, now int64) { h.globalDelivered(p, now) }
	return h
}

func (h *HybridCryoBus) cluster(node int) int { return node / clusterSize }
func (h *HybridCryoBus) local(node int) int   { return node % clusterSize }

// TryInject implements Network. Like every network, it panics on a
// source or destination it does not have.
func (h *HybridCryoBus) TryInject(p *Packet) bool {
	if p.Dst == Broadcast {
		panic("noc: hybrid CryoBus is directory-based; broadcasts unsupported (§7.3)")
	}
	if p.Src < 0 || p.Src >= h.Nodes() {
		panic(fmt.Sprintf("noc: %s has no source node %d", h.name, p.Src))
	}
	if p.Dst < 0 || p.Dst >= h.Nodes() {
		panic(fmt.Sprintf("noc: %s has no node %d", h.name, p.Dst))
	}
	ci, cj := h.cluster(p.Src), h.cluster(p.Dst)
	if ci == cj {
		local := &Packet{ID: p.ID, Src: h.local(p.Src), Dst: h.local(p.Dst), Flits: p.Flits, InjectedAt: p.InjectedAt}
		h.phase1[local] = p
		if !h.clusters[ci].TryInject(local) {
			delete(h.phase1, local)
			return false
		}
		return true
	}
	// Inter-cluster: first ride the source cluster bus to the gateway.
	leg := &Packet{ID: p.ID, Src: h.local(p.Src), Dst: gatewayNode, Flits: p.Flits, InjectedAt: p.InjectedAt}
	h.phase1[leg] = p
	if !h.clusters[ci].TryInject(leg) {
		delete(h.phase1, leg)
		return false
	}
	return true
}

// clusterDelivered handles a completed bus leg.
func (h *HybridCryoBus) clusterDelivered(ci int, leg *Packet, now int64) {
	orig := h.phase1[leg]
	delete(h.phase1, leg)
	if orig == nil {
		return // stray; should not happen
	}
	if h.cluster(orig.Dst) == ci && h.local(orig.Dst) == leg.Dst {
		// Final leg complete.
		h.stats.Record(orig, now)
		return
	}
	// Leg 1 complete at the gateway: cross the global mesh.
	g := &Packet{ID: orig.ID, Src: ci, Dst: h.cluster(orig.Dst), Flits: orig.Flits, InjectedAt: orig.InjectedAt}
	h.phase1[g] = orig
	if !h.global.TryInject(g) {
		h.toGlobal[ci].pushBack(g)
	}
}

// globalDelivered handles a completed mesh crossing.
func (h *HybridCryoBus) globalDelivered(g *Packet, now int64) {
	orig := h.phase1[g]
	delete(h.phase1, g)
	if orig == nil {
		return
	}
	cj := h.cluster(orig.Dst)
	leg := &Packet{ID: orig.ID, Src: gatewayNode, Dst: h.local(orig.Dst), Flits: orig.Flits, InjectedAt: orig.InjectedAt}
	h.phase1[leg] = orig
	if !h.clusters[cj].TryInject(leg) {
		h.toCluster[cj].pushBack(leg)
	}
}

// Step implements Network. It first retries each waiting queue up to
// its first refusal. That accepts what a retry of every waiting leg
// would: a refused TryInject changes nothing and depends only on the
// queue at the leg's source, which nothing in the retry loop shrinks,
// so every later leg from that source is refused too.
func (h *HybridCryoBus) Step() {
	for ci := range h.toGlobal {
		q := &h.toGlobal[ci]
		for q.n > 0 && h.global.TryInject(q.front()) {
			q.popFront()
		}
	}
	for cj := range h.toCluster {
		q := &h.toCluster[cj]
		for q.n > 0 && h.clusters[cj].TryInject(q.front()) {
			q.popFront()
		}
	}
	for _, c := range h.clusters {
		c.Step()
	}
	h.global.Step()
	h.now++
}

// Nodes implements Network.
func (h *HybridCryoBus) Nodes() int { return 4 * clusterSize }

// Cycle implements Network.
func (h *HybridCryoBus) Cycle() int64 { return h.now }

// Stats implements Network.
func (h *HybridCryoBus) Stats() *Stats { return &h.stats }

// ZeroLoadLatency implements Network: mix of intra-cluster bus latency
// (3/4 of traffic crosses clusters under uniform traffic).
func (h *HybridCryoBus) ZeroLoadLatency() float64 {
	intra := h.clusters[0].ZeroLoadLatency()
	inter := intra + h.global.ZeroLoadLatency() + h.clusters[0].ZeroLoadLatency()
	return 0.25*intra + 0.75*inter
}

var _ Network = (*HybridCryoBus)(nil)
