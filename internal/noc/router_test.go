package noc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// stepRig drives one RouterNet with uniform open-loop traffic without
// allocating: packets come from a fixed pool through a free list that
// the delivery hook refills, and a packet the full injection port
// refuses goes straight back to the list.
type stepRig struct {
	rn   *RouterNet
	rng  *rand.Rand
	rate float64
	free []*Packet
	id   int64
}

// newStepRig builds the rig and runs warm cycles so every port ring
// has grown to its credit ceiling before anything is measured.
func newStepRig(rn *RouterNet, rate float64, warm int) *stepRig {
	slots := 0
	for ri := range rn.routers {
		slots += len(rn.routers[ri].ports) * rn.inCap
	}
	g := &stepRig{rn: rn, rng: rand.New(rand.NewSource(1)), rate: rate}
	// Every in-flight packet holds a port slot, so the pool never runs dry.
	pool := make([]Packet, slots)
	g.free = make([]*Packet, 0, slots)
	for i := range pool {
		g.free = append(g.free, &pool[i])
	}
	rn.OnDeliver = func(p *Packet, now int64) {
		rn.stats.Record(p, now)
		g.free = append(g.free, p)
	}
	for i := 0; i < warm; i++ {
		g.cycle()
	}
	return g
}

// cycle offers this cycle's packets and steps the network once.
func (g *stepRig) cycle() {
	now := g.rn.Cycle()
	nodes := g.rn.Nodes()
	for s := 0; s < nodes; s++ {
		if g.rng.Float64() >= g.rate {
			continue
		}
		p := g.free[len(g.free)-1]
		g.free = g.free[:len(g.free)-1]
		*p = Packet{ID: g.id, Src: s, Dst: Uniform{}.Dest(s, nodes, g.rng), Flits: 1, InjectedAt: now}
		g.id++
		if !g.rn.TryInject(p) {
			g.free = append(g.free, p)
		}
	}
	g.rn.Step()
}

// stepRates are the Mesh-256 loads the benchmark and the allocation
// gate use: sparse (most routers idle each cycle), moderate, and close
// to the mesh's saturation rate.
var stepRates = []float64{0.002, 0.02, 0.3}

// BenchmarkRouterNetStep times one Mesh-256 cycle (traffic generation
// plus Step) in steady state at each of stepRates.
func BenchmarkRouterNetStep(b *testing.B) {
	for _, rate := range stepRates {
		b.Run(fmt.Sprintf("rate=%g", rate), func(b *testing.B) {
			g := newStepRig(NewMesh(256, timing77(1)), rate, 3000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.cycle()
			}
		})
	}
}

// TestRouterNetStepAllocs asserts the router cycle's zero-alloc
// contract: once the port rings have grown, a Step allocates nothing.
func TestRouterNetStepAllocs(t *testing.T) {
	for _, rate := range stepRates {
		g := newStepRig(NewMesh(256, timing77(1)), rate, 3000)
		if allocs := testing.AllocsPerRun(500, g.cycle); allocs != 0 {
			t.Errorf("rate %g: warmed Mesh-256 cycle allocates %v times, want 0", rate, allocs)
		}
		if g.rn.Stats().Delivered == 0 {
			t.Errorf("rate %g: nothing delivered", rate)
		}
	}
}

// TestAddLinkRejectsOversizedRouters checks the guards that keep a
// router within Step's 64-bit request masks and the uint8 next-hop
// table: the last link that fits is accepted, the next one panics.
func TestAddLinkRejectsOversizedRouters(t *testing.T) {
	for _, tc := range []struct {
		name string
		fits int // links that must be accepted
		add  func(rn *RouterNet, i int)
		msg  string
	}{
		// Router 0 starts with its injection port; links 1..63 fill it.
		{"input ports", maxPorts - 1, func(rn *RouterNet, i int) { rn.addLink(i+1, 0, 1, 1) }, "input ports"},
		{"output links", ejectHop, func(rn *RouterNet, i int) { rn.addLink(0, i+1, 1, 1) }, "output links"},
	} {
		rn := newRouterNet("star", ejectHop+2, 1, timing77(1))
		for i := 0; i < tc.fits; i++ {
			tc.add(rn, i)
		}
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), tc.msg) {
					t.Errorf("%s: one link past the limit panicked with %v, want a message about %s", tc.name, r, tc.msg)
				}
			}()
			tc.add(rn, tc.fits)
		}()
	}
}

// TestRouterNetRejectsUnknownDestination: a destination outside the
// network would index the wrong row of the next-hop table, so
// TryInject refuses it loudly.
func TestRouterNetRejectsUnknownDestination(t *testing.T) {
	m := NewMesh(64, timing300(1))
	for _, dst := range []int{64, -2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("injecting toward node %d did not panic", dst)
				}
			}()
			m.TryInject(&Packet{Src: 0, Dst: dst, Flits: 1})
		}()
	}
}

// hopsBetween returns the router-hop count between two nodes by
// walking the next-hop table the constructor built from route.
func hopsBetween(rn *RouterNet, a, b int) int {
	cur, d := rn.nodeRouter(a), rn.nodeRouter(b)
	nr := len(rn.routers)
	hops := 0
	for cur != d {
		lnk := rn.routers[cur].links[rn.nextHop[cur*nr+d]]
		cur = lnk.to
		hops++
		if hops > len(rn.routers) {
			panic(fmt.Sprintf("noc: routing loop in %s between %d and %d", rn.name, a, b))
		}
	}
	return hops
}
