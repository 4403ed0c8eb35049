package noc

import (
	"fmt"

	"cryowire/internal/fault"
)

// This file implements CryoBus graceful degradation: when H-tree
// segments (or serpentine chain segments) are dead, the bus does not
// panic or silently keep its healthy 1-cycle-broadcast timing — it
// recomputes every request/grant/broadcast distance over the surviving
// topology. A dead segment is bypassed on the chip's ordinary
// neighbouring tile wires (the maintenance detour), so a span of h
// hops degrades to 2·h+2 hops: connectivity survives, the 1-cycle
// broadcast does not. The degraded bus therefore reports honest
// multi-cycle latencies instead of hanging or lying.

// detourHops is the bypass cost of a dead segment of length h tile
// hops: the signal is re-routed around the failed wire over the
// neighbouring tiles' spare wiring, roughly doubling the distance plus
// the two extra turns onto and off the detour.
func detourHops(h int) int { return 2*h + 2 }

// HTreeSegment identifies one physical segment of the H-tree.
type HTreeSegment struct {
	// Level is the climb level: 0 = leaf→L1 hub, 1 = L1→L2 hub,
	// 2 = L2 hub→root.
	Level int
	// Index is the block index at that level (node index at level 0,
	// 2×2-block index at level 1, quadrant index at level 2).
	Index int
}

// DegradedHTree is an H-tree layout with a set of dead segments. It
// satisfies BusLayout with the degraded distances.
type DegradedHTree struct {
	base HTreeLayout
	// upCost[n] is the n-th leaf's total climb cost to the root over
	// the surviving topology.
	upCost []int
	// segCost[l][i] is the cost of the level-l segment of block i.
	segCost [3][]int
	failed  []HTreeSegment
	maxUp   int
}

// DegradeHTree applies the given dead segments to an H-tree layout.
// Unknown (out-of-range) segments are rejected.
func DegradeHTree(base HTreeLayout, failed []HTreeSegment) (*DegradedHTree, error) {
	d := &DegradedHTree{base: base, failed: append([]HTreeSegment(nil), failed...)}
	counts := [3]int{base.NodesN, blockCount(base, 0), blockCount(base, 1)}
	for l := 0; l < 3; l++ {
		d.segCost[l] = make([]int, counts[l])
		for i := range d.segCost[l] {
			d.segCost[l][i] = levelHops[l]
		}
	}
	for _, s := range failed {
		if s.Level < 0 || s.Level > 2 || s.Index < 0 || s.Index >= counts[s.Level] {
			return nil, fmt.Errorf("noc: no H-tree segment at level %d index %d", s.Level, s.Index)
		}
		d.segCost[s.Level][s.Index] = detourHops(levelHops[s.Level])
	}
	d.upCost = make([]int, base.NodesN)
	for n := range d.upCost {
		c := d.segCost[0][n] + d.segCost[1][base.quad(n, 0)] + d.segCost[2][base.quad(n, 1)]
		d.upCost[n] = c
		if c > d.maxUp {
			d.maxUp = c
		}
	}
	return d, nil
}

// blockCount returns the number of blocks at quadtree level l.
func blockCount(h HTreeLayout, l int) int {
	shift := l + 1
	side := h.Side >> shift
	if side < 1 {
		side = 1
	}
	return side * side
}

// degradeHTreeWith draws the dead-segment set from the injector.
// Returns nil when every segment survived (keep the healthy layout —
// and its bit-for-bit-identical timing).
func degradeHTreeWith(base HTreeLayout, inj *fault.Injector, domain string) *DegradedHTree {
	var failed []HTreeSegment
	counts := [3]int{base.NodesN, blockCount(base, 0), blockCount(base, 1)}
	for l := 0; l < 3; l++ {
		for i := 0; i < counts[l]; i++ {
			if inj.LinkDown(fmt.Sprintf("%s/htree-l%d", domain, l), i) {
				failed = append(failed, HTreeSegment{Level: l, Index: i})
			}
		}
	}
	if len(failed) == 0 {
		return nil
	}
	// Indices are in range by construction, so DegradeHTree cannot fail.
	d, _ := DegradeHTree(base, failed)
	return d
}

// Name implements BusLayout.
func (d *DegradedHTree) Name() string {
	return fmt.Sprintf("h-tree (%d dead segments)", len(d.failed))
}

// BroadcastHops implements BusLayout: the worst source climbs to the
// root and the wavefront descends to the worst leaf, both over the
// surviving topology. Healthy this is 2·6 = 12.
func (d *DegradedHTree) BroadcastHops() int { return 2 * d.maxUp }

// ReqHops implements BusLayout: the leaf's surviving-path distance to
// the central arbiter at the root.
func (d *DegradedHTree) ReqHops(node int) int { return d.upCost[node] }

// PathHops implements BusLayout: climb to the lowest common hub and
// descend, each leg over its surviving segments.
func (d *DegradedHTree) PathHops(a, b int) int {
	if a == b {
		return 0
	}
	h := d.base
	if h.quad(a, 0) == h.quad(b, 0) {
		return d.segCost[0][a] + d.segCost[0][b]
	}
	if h.quad(a, 1) == h.quad(b, 1) {
		return d.segCost[0][a] + d.segCost[1][h.quad(a, 0)] +
			d.segCost[0][b] + d.segCost[1][h.quad(b, 0)]
	}
	return d.upCost[a] + d.upCost[b]
}

// DegradedSerpentine is the serpentine bus with dead chain segments:
// every path crossing a dead inter-tap segment pays the detour
// surcharge on top of the healthy distance.
type DegradedSerpentine struct {
	base SerpentineLayout
	// failedAt lists the dead segment positions (segment i spans tap i
	// to tap i+1), sorted ascending.
	failedAt []int
	// surcharge is the extra cost a path pays per dead segment it
	// crosses.
	surcharge int
}

// degradeSerpentineWith draws dead chain segments from the injector;
// nil when the chain is intact.
func degradeSerpentineWith(base SerpentineLayout, inj *fault.Injector, domain string) *DegradedSerpentine {
	maxTap := base.NodesN/2 - 1
	var failed []int
	for i := 0; i < maxTap; i++ {
		if inj.LinkDown(domain+"/serpentine", i) {
			failed = append(failed, i)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return &DegradedSerpentine{base: base, failedAt: failed, surcharge: detourHops(1) - 1}
}

// Name implements BusLayout.
func (d *DegradedSerpentine) Name() string {
	return fmt.Sprintf("serpentine (%d dead segments)", len(d.failedAt))
}

// deadBetween counts dead segments strictly inside [lo, hi).
func (d *DegradedSerpentine) deadBetween(lo, hi int) int {
	if lo > hi {
		lo, hi = hi, lo
	}
	n := 0
	for _, f := range d.failedAt {
		if f >= lo && f < hi {
			n++
		}
	}
	return n
}

// BroadcastHops implements BusLayout: the healthy span plus a detour
// surcharge per dead segment anywhere on the chain (a broadcast drives
// the whole chain).
func (d *DegradedSerpentine) BroadcastHops() int {
	return d.base.BroadcastHops() + d.surcharge*len(d.failedAt)
}

// ReqHops implements BusLayout: healthy distance to the mid-chain
// arbiter plus detours crossed en route.
func (d *DegradedSerpentine) ReqHops(node int) int {
	mid := d.base.BroadcastHops() / 2
	tap := d.base.tap(node)
	h := tap - mid
	if h < 0 {
		h = -h
	}
	return h + d.surcharge*d.deadBetween(tap, mid)
}

// PathHops implements BusLayout.
func (d *DegradedSerpentine) PathHops(a, b int) int {
	ta, tb := d.base.tap(a), d.base.tap(b)
	h := ta - tb
	if h < 0 {
		h = -h
	}
	return h + d.surcharge*d.deadBetween(ta, tb)
}

var (
	_ BusLayout = (*DegradedHTree)(nil)
	_ BusLayout = (*DegradedSerpentine)(nil)
)
