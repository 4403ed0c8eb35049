package noc

import "fmt"

// NewTorus builds a 2D folded torus: a mesh with wrap-around links,
// halving the average hop count at the cost of longer (folded) links —
// a useful design-space companion to the Fig 15 topologies. The
// wrap-around links have no dateline virtual channel, so past
// saturation a row or column ring can deadlock and hold packets forever
// (EXPERIMENTS.md, "Known deviations and their causes").
func NewTorus(nodes int, timing Timing) *RouterNet {
	side := gridSide(nodes)
	if side*side != nodes {
		panic(fmt.Sprintf("noc: torus needs a square node count, got %d", nodes))
	}
	rn := newRouterNet(fmt.Sprintf("Torus-%d", nodes), nodes, 1, timing)
	// Folded-torus layout: physical link length is two tile pitches for
	// every hop (neighbouring nodes are interleaved), which keeps all
	// links equal instead of one huge wrap wire.
	const foldedPitch = 2
	hop := timing.WireCycles(foldedPitch)
	type dirLinks struct{ e, w, n, s int }
	links := make([]dirLinks, nodes)
	for r := 0; r < nodes; r++ {
		x, y := r%side, r/side
		east := y*side + (x+1)%side
		west := y*side + (x+side-1)%side
		north := ((y+1)%side)*side + x
		south := ((y+side-1)%side)*side + x
		links[r].e = len(rn.routers[r].links)
		rn.addLink(r, east, hop, foldedPitch)
		links[r].w = len(rn.routers[r].links)
		rn.addLink(r, west, hop, foldedPitch)
		links[r].n = len(rn.routers[r].links)
		rn.addLink(r, north, hop, foldedPitch)
		links[r].s = len(rn.routers[r].links)
		rn.addLink(r, south, hop, foldedPitch)
	}
	rn.route = func(cur, dst int) int {
		cx, cy := cur%side, cur/side
		dx, dy := dst%side, dst/side
		if cx != dx {
			fwd := (dx - cx + side) % side
			if fwd <= side/2 {
				return links[cur].e
			}
			return links[cur].w
		}
		fwd := (dy - cy + side) % side
		if fwd <= side/2 {
			return links[cur].n
		}
		return links[cur].s
	}
	rn.finish()
	return rn
}
