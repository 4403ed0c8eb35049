package noc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refHybrid is HybridCryoBus as it was before its retries moved to one
// queue per gateway router and per destination cluster: every leg that
// hit back-pressure waits in one of two lists, and Step offers every
// entry of both lists again each cycle. It is kept as the reference the
// per-queue retry must match cycle for cycle. It runs on its own
// clusters and global mesh, built by NewHybridCryoBus and rehooked.
type refHybrid struct {
	clusters  []*Bus
	global    *RouterNet
	now       int64
	stats     Stats
	toGlobal  []refHop
	toCluster []refHop
	// phase1 holds the in-flight originals by packet ID.
	phase1 map[int64]Packet
}

type refHop struct {
	orig Packet
	pkt  Packet
}

func newRefHybrid(meshTiming Timing) *refHybrid {
	shell := NewHybridCryoBus(bus77(), meshTiming)
	h := &refHybrid{clusters: shell.clusters, global: shell.global, phase1: make(map[int64]Packet)}
	for ci, c := range h.clusters {
		ci := ci
		c.OnDeliver = func(p Packet, now int64) { h.clusterDelivered(ci, p, now) }
	}
	h.global.OnDeliver = h.globalDelivered
	return h
}

func (h *refHybrid) TryInject(p Packet) bool {
	ci, cj := p.Src/clusterSize, p.Dst/clusterSize
	dst := gatewayNode
	if ci == cj {
		dst = p.Dst % clusterSize
	}
	leg := Packet{ID: p.ID, Src: p.Src % clusterSize, Dst: dst, Flits: p.Flits, InjectedAt: p.InjectedAt}
	if !h.clusters[ci].TryInject(leg) {
		return false
	}
	h.phase1[p.ID] = p
	return true
}

func (h *refHybrid) clusterDelivered(ci int, leg Packet, now int64) {
	orig := h.phase1[leg.ID]
	if orig.Dst/clusterSize == ci && orig.Dst%clusterSize == leg.Dst {
		delete(h.phase1, leg.ID)
		h.stats.Record(orig, now)
		return
	}
	g := Packet{ID: orig.ID, Src: ci, Dst: orig.Dst / clusterSize, Flits: orig.Flits, InjectedAt: orig.InjectedAt}
	if !h.global.TryInject(g) {
		h.toGlobal = append(h.toGlobal, refHop{orig: orig, pkt: g})
	}
}

func (h *refHybrid) globalDelivered(g Packet, now int64) {
	orig := h.phase1[g.ID]
	leg := Packet{ID: orig.ID, Src: gatewayNode, Dst: orig.Dst % clusterSize, Flits: orig.Flits, InjectedAt: orig.InjectedAt}
	if !h.clusters[orig.Dst/clusterSize].TryInject(leg) {
		h.toCluster = append(h.toCluster, refHop{orig: orig, pkt: leg})
	}
}

func (h *refHybrid) Step() {
	keepG := h.toGlobal[:0]
	for _, e := range h.toGlobal {
		if !h.global.TryInject(e.pkt) {
			keepG = append(keepG, e)
		}
	}
	h.toGlobal = keepG
	keepC := h.toCluster[:0]
	for _, e := range h.toCluster {
		if !h.clusters[e.orig.Dst/clusterSize].TryInject(e.pkt) {
			keepC = append(keepC, e)
		}
	}
	h.toCluster = keepC
	for _, c := range h.clusters {
		c.Step()
	}
	h.global.Step()
	h.now++
}

// compareHybrids reports the first difference between the hybrid and
// the reference: statistics, every cluster node's bus queue length and
// the global mesh's port occupancies, and the retry backlog per queue
// with the packets in it, in order.
func compareHybrids(h *HybridCryoBus, ref *refHybrid) error {
	if h.now != ref.now || h.stats != ref.stats {
		return fmt.Errorf("cycle %d stats %+v, reference cycle %d stats %+v", h.now, h.stats, ref.now, ref.stats)
	}
	for ci, c := range h.clusters {
		for node := range c.queues {
			if a, b := c.queues[node].n, ref.clusters[ci].queues[node].n; a != b {
				return fmt.Errorf("cluster %d node %d: %d queued, reference %d", ci, node, a, b)
			}
		}
	}
	for ri := range h.global.routers {
		for pi := range h.global.routers[ri].ports {
			if a, b := h.global.routers[ri].ports[pi].n, ref.global.routers[ri].ports[pi].n; a != b {
				return fmt.Errorf("gateway router %d port %d: occupancy %d, reference %d", ri, pi, a, b)
			}
		}
	}
	backlog := func(name string, qs *[4]ring[Packet], hops []refHop, target func(refHop) int) error {
		for t := range qs {
			var want []int64
			for _, e := range hops {
				if target(e) == t {
					want = append(want, e.pkt.ID)
				}
			}
			q := &qs[t]
			got := make([]int64, q.n)
			for k := range got {
				got[k] = q.at(k).ID
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("%s[%d] holds packets %v, reference %v", name, t, got, want)
			}
		}
		return nil
	}
	if err := backlog("toGlobal", &h.toGlobal, ref.toGlobal, func(e refHop) int { return e.pkt.Src }); err != nil {
		return err
	}
	return backlog("toCluster", &h.toCluster, ref.toCluster, func(e refHop) int { return e.orig.Dst / clusterSize })
}

// TestHybridRetryMatchesReference steps the hybrid and the reference
// side by side past saturation under uniform, transpose and bursty
// traffic, with 1- and 4-flit packets, and compares them every cycle.
// Each source offers its queue to both until one refuses, so the two
// must also agree on every TryInject. With the 77 K mesh the gateway
// buses saturate first and legs wait only for a cluster; a mesh with
// 100-cycle routers holds each link's 12 credits for 100 cycles, so legs
// also wait for the mesh. Every run must leave legs waiting in the
// retry queues it is meant to exercise.
func TestHybridRetryMatchesReference(t *testing.T) {
	const cycles = 800
	meshes := []struct {
		name       string
		timing     Timing
		waitGlobal bool
	}{{"mesh77", timing77(1), false}, {"slowmesh", timing77(100), true}}
	for _, mesh := range meshes {
		for _, pat := range []Pattern{Uniform{}, Transpose{}, Burst{}} {
			for _, flits := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/flits=%d", mesh.name, pat.Name(), flits), func(t *testing.T) {
					t.Parallel()
					runHybridTwins(t, mesh.timing, pat, flits, cycles, mesh.waitGlobal)
				})
			}
		}
	}
}

// runHybridTwins is one TestHybridRetryMatchesReference case.
func runHybridTwins(t *testing.T, meshTiming Timing, pat Pattern, flits, cycles int, waitGlobal bool) {
	h, ref := NewHybridCryoBus(bus77(), meshTiming), newRefHybrid(meshTiming)
	nodes := h.Nodes()
	rng := rand.New(rand.NewSource(int64(flits)))
	burst, bursty := pat.(Burst)
	burstOn := make([]bool, nodes)
	pending := make([][]Packet, nodes)
	var id int64
	var maxGlobal, maxCluster int
	for cyc := 0; cyc < cycles; cyc++ {
		// The offered load ramps from 0.01 to 0.31 packets per
		// node per cycle, well past saturation. A source stops
		// generating while 64 packets wait, which keeps the run small.
		rate := 0.01 + 0.3*float64(cyc)/float64(cycles)
		for s := 0; s < nodes; s++ {
			genRate := rate
			if bursty {
				// measureRate's two-state chain.
				p := burst.onProb()
				if burstOn[s] {
					burstOn[s] = rng.Float64() >= (1-p)/10
				} else {
					burstOn[s] = rng.Float64() < p/10
				}
				if !burstOn[s] {
					genRate = 0
				} else {
					genRate = rate / p
				}
			}
			if rng.Float64() < genRate && len(pending[s]) < 64 {
				pk := Packet{ID: id, Src: s, Dst: pat.Dest(s, nodes, rng), Flits: flits, InjectedAt: h.now}
				id++
				pending[s] = append(pending[s], pk)
			}
			for len(pending[s]) > 0 {
				okF, okR := h.TryInject(pending[s][0]), ref.TryInject(pending[s][0])
				if okF != okR {
					t.Fatalf("cycle %d: TryInject at node %d = %v, reference %v", cyc, s, okF, okR)
				}
				if !okF {
					break
				}
				pending[s] = pending[s][1:]
			}
		}
		h.Step()
		ref.Step()
		if err := compareHybrids(h, ref); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		maxGlobal, maxCluster = max(maxGlobal, len(ref.toGlobal)), max(maxCluster, len(ref.toCluster))
	}
	if maxCluster == 0 || (waitGlobal && maxGlobal == 0) {
		t.Errorf("retry backlog peaked at %d global and %d cluster legs; the run did not exercise the retry", maxGlobal, maxCluster)
	}
	t.Logf("delivered %d; retry backlog peaked at %d global and %d cluster legs", h.stats.Delivered, maxGlobal, maxCluster)
}
