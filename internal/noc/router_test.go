package noc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cryowire/internal/fault"
)

// stepRig drives one RouterNet with uniform open-loop traffic; a
// packet the full injection port refuses is dropped.
type stepRig struct {
	rn   *RouterNet
	rng  *rand.Rand
	rate float64
	id   int64
}

// newStepRig builds the rig and runs warm cycles so every port ring
// and the packet slab have grown before anything is measured.
func newStepRig(rn *RouterNet, rate float64, warm int) *stepRig {
	g := &stepRig{rn: rn, rng: rand.New(rand.NewSource(1)), rate: rate}
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
		g.rn.TryInject(Packet{ID: g.id, Src: s, Dst: Uniform{}.Dest(s, nodes, g.rng), Flits: 1, InjectedAt: now})
		g.id++
	}
	g.rn.Step()
}

// stepCases are the networks and loads the benchmark and the
// allocation gate use: Mesh-256 sparse (most routers idle each cycle),
// moderate and close to its saturation rate; Mesh-64 at a sparse load,
// the regime the system simulator runs in; and a fault-degraded
// Mesh-64, whose schedule ApplyFaults re-sized for its slower links.
var stepCases = []struct {
	name string
	mk   func() *RouterNet
	rate float64
}{
	{"Mesh-256", func() *RouterNet { return NewMesh(256, timing77(1)) }, 0.002},
	{"Mesh-256", func() *RouterNet { return NewMesh(256, timing77(1)) }, 0.02},
	{"Mesh-256", func() *RouterNet { return NewMesh(256, timing77(1)) }, 0.3},
	{"Mesh-64", func() *RouterNet { return NewMesh(64, timing77(1)) }, 0.01},
	{"Mesh-64-faulted", faultedMesh64, 0.01},
}

// faultedMesh64 is a Mesh-64 with a fifth of its links on slow spares.
func faultedMesh64() *RouterNet {
	inj, err := fault.New(fault.Config{Seed: 2, LinkFailureRate: 0.2})
	if err != nil {
		panic(err)
	}
	m := NewMesh(64, timing77(1))
	m.ApplyFaults(inj, "mesh")
	return m
}

// BenchmarkRouterNetStep times one cycle (traffic generation plus
// Step) in steady state on each of stepCases.
func BenchmarkRouterNetStep(b *testing.B) {
	for _, tc := range stepCases {
		b.Run(fmt.Sprintf("%s/rate=%g", tc.name, tc.rate), func(b *testing.B) {
			g := newStepRig(tc.mk(), tc.rate, 3000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.cycle()
			}
		})
	}
}

// TestRouterNetStepAllocs asserts the router cycle's zero-alloc
// contract on each of stepCases: once the port rings and the packet
// slab have grown, a Step allocates nothing.
func TestRouterNetStepAllocs(t *testing.T) {
	for _, tc := range stepCases {
		g := newStepRig(tc.mk(), tc.rate, 3000)
		if allocs := testing.AllocsPerRun(500, g.cycle); allocs != 0 {
			t.Errorf("%s rate %g: warmed cycle allocates %v times, want 0", tc.name, tc.rate, allocs)
		}
		if g.rn.Stats().Delivered == 0 {
			t.Errorf("%s rate %g: nothing delivered", tc.name, tc.rate)
		}
	}
}

// TestApplyFaultsRejectsLateCalls: the schedule Step keeps is sized
// from the link latencies, so degrading links once a packet was
// injected, or a cycle stepped, panics instead of overrunning it.
func TestApplyFaultsRejectsLateCalls(t *testing.T) {
	inj := mustInjector(t, fault.Config{Seed: 2, LinkFailureRate: 0.2})
	for _, tc := range []struct {
		name  string
		start func(m *RouterNet)
	}{
		{"after an injection", func(m *RouterNet) { m.TryInject(Packet{Src: 0, Dst: 63, Flits: 1}) }},
		{"after a step", func(m *RouterNet) { m.Step() }},
	} {
		m := NewMesh(64, timing77(1))
		tc.start(m)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "after traffic started") {
					t.Errorf("%s: ApplyFaults panicked with %v, want a message that traffic started", tc.name, r)
				}
			}()
			m.ApplyFaults(inj, "mesh")
		}()
	}
}

// TestAddLinkRejectsOversizedRouters checks the guards that keep a
// router within Step's 64-bit port and link masks: the last link that
// fits is accepted, the next one panics.
func TestAddLinkRejectsOversizedRouters(t *testing.T) {
	for _, tc := range []struct {
		name string
		fits int // links that must be accepted
		add  func(rn *RouterNet, i int)
		msg  string
	}{
		// Router 0 starts with its injection port; links 1..63 fill it.
		{"input ports", maxPorts - 1, func(rn *RouterNet, i int) { rn.addLink(i+1, 0, 1, 1) }, "input ports"},
		{"output links", maxLinks, func(rn *RouterNet, i int) { rn.addLink(0, i+1, 1, 1) }, "output links"},
	} {
		rn := newRouterNet("star", maxLinks+2, 1, 0, timing77(1))
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
			m.TryInject(Packet{Src: 0, Dst: dst, Flits: 1})
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

// AvgLatency returns the mean packet latency in cycles.
func (s *Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Delivered)
}
