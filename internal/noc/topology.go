package noc

import "fmt"

// NewMesh builds an n-node 2D mesh (one node per router, XY routing) —
// the Fig 15(a) baseline. Router pitch is one 2 mm tile.
func NewMesh(nodes int, timing Timing) *RouterNet {
	side := gridSide(nodes)
	if side*side != nodes {
		panic(fmt.Sprintf("noc: mesh needs a square node count, got %d", nodes))
	}
	rn := newRouterNet(fmt.Sprintf("Mesh-%d", nodes), nodes, 1, 4, timing)
	const pitch = 1 // tile hops between adjacent routers
	hop := timing.WireCycles(pitch)
	linkIndex := make([][4]int, nodes) // E, W, N, S link index per router
	for i := range linkIndex {
		linkIndex[i] = [4]int{-1, -1, -1, -1}
	}
	for r := 0; r < nodes; r++ {
		x, y := r%side, r/side
		if x+1 < side {
			linkIndex[r][0] = len(rn.routers[r].links)
			rn.addLink(r, r+1, hop, pitch)
		}
		if x > 0 {
			linkIndex[r][1] = len(rn.routers[r].links)
			rn.addLink(r, r-1, hop, pitch)
		}
		if y+1 < side {
			linkIndex[r][2] = len(rn.routers[r].links)
			rn.addLink(r, r+side, hop, pitch)
		}
		if y > 0 {
			linkIndex[r][3] = len(rn.routers[r].links)
			rn.addLink(r, r-side, hop, pitch)
		}
	}
	rn.route = func(cur, dst int) int {
		cx, cy := cur%side, cur/side
		dx, dy := dst%side, dst/side
		switch { // XY: resolve X first
		case dx > cx:
			return linkIndex[cur][0]
		case dx < cx:
			return linkIndex[cur][1]
		case dy > cy:
			return linkIndex[cur][2]
		default:
			return linkIndex[cur][3]
		}
	}
	rn.finish()
	return rn
}

// NewCMesh builds a concentrated mesh (Fig 15(c)): 4 nodes per router,
// router pitch two tiles, XY routing.
func NewCMesh(nodes int, timing Timing) *RouterNet {
	const conc = 4
	if nodes%conc != 0 {
		panic(fmt.Sprintf("noc: cmesh needs a multiple of %d nodes, got %d", conc, nodes))
	}
	routers := nodes / conc
	side := gridSide(routers)
	if side*side != routers {
		panic(fmt.Sprintf("noc: cmesh router count %d not square", routers))
	}
	rn := newRouterNet(fmt.Sprintf("CMesh-%d", nodes), nodes, conc, 4, timing)
	const pitch = 2 // doubled router pitch
	hop := timing.WireCycles(pitch)
	linkIndex := make([][4]int, routers)
	for i := range linkIndex {
		linkIndex[i] = [4]int{-1, -1, -1, -1}
	}
	for r := 0; r < routers; r++ {
		x, y := r%side, r/side
		if x+1 < side {
			linkIndex[r][0] = len(rn.routers[r].links)
			rn.addLink(r, r+1, hop, pitch)
		}
		if x > 0 {
			linkIndex[r][1] = len(rn.routers[r].links)
			rn.addLink(r, r-1, hop, pitch)
		}
		if y+1 < side {
			linkIndex[r][2] = len(rn.routers[r].links)
			rn.addLink(r, r+side, hop, pitch)
		}
		if y > 0 {
			linkIndex[r][3] = len(rn.routers[r].links)
			rn.addLink(r, r-side, hop, pitch)
		}
	}
	rn.route = func(cur, dst int) int {
		cx, cy := cur%side, cur/side
		dx, dy := dst%side, dst/side
		switch {
		case dx > cx:
			return linkIndex[cur][0]
		case dx < cx:
			return linkIndex[cur][1]
		case dy > cy:
			return linkIndex[cur][2]
		default:
			return linkIndex[cur][3]
		}
	}
	rn.finish()
	return rn
}

// NewFlattenedButterfly builds a 2D flattened butterfly (Fig 15(b)):
// 4 nodes per router on a 4×4 router grid, with direct links between
// every pair of routers sharing a row or a column — at most 2 hops,
// with links up to six tiles long (the reason FB benefits somewhat more
// from fast wires than Mesh, §5.1).
func NewFlattenedButterfly(nodes int, timing Timing) *RouterNet {
	const conc = 4
	routers := nodes / conc
	side := gridSide(routers)
	if side*side != routers || nodes%conc != 0 {
		panic(fmt.Sprintf("noc: flattened butterfly needs 4·k² nodes, got %d", nodes))
	}
	rn := newRouterNet(fmt.Sprintf("FB-%d", nodes), nodes, conc, 2*(side-1), timing)
	// links[cur][dst] = output link index at cur (row/col neighbors only).
	links := make([]map[int]int, routers)
	for r := range links {
		links[r] = make(map[int]int)
	}
	for r := 0; r < routers; r++ {
		x, y := r%side, r/side
		for nx := 0; nx < side; nx++ { // row links
			if nx == x {
				continue
			}
			d := y*side + nx
			dist := nx - x
			if dist < 0 {
				dist = -dist
			}
			links[r][d] = len(rn.routers[r].links)
			rn.addLink(r, d, timing.WireCycles(2*dist), 2*dist) // pitch 2 tiles per index
		}
		for ny := 0; ny < side; ny++ { // column links
			if ny == y {
				continue
			}
			d := ny*side + x
			dist := ny - y
			if dist < 0 {
				dist = -dist
			}
			links[r][d] = len(rn.routers[r].links)
			rn.addLink(r, d, timing.WireCycles(2*dist), 2*dist)
		}
	}
	rn.route = func(cur, dst int) int {
		if li, ok := links[cur][dst]; ok {
			return li // direct row/col link
		}
		// Route in the row first toward the destination column.
		cx := cur % side
		cy := cur / side
		dx := dst % side
		_ = cx
		mid := cy*side + dx
		return links[cur][mid]
	}
	rn.finish()
	return rn
}
