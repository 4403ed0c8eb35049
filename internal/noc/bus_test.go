package noc

import (
	"fmt"
	"math/rand"
	"testing"
)

// busRig drives one CryoBus with uniform open-loop traffic; a packet
// the full queue refuses is dropped.
type busRig struct {
	b    *Bus
	rng  *rand.Rand
	rate float64
	id   int64
}

// newBusRig builds the rig and runs warm cycles so every queue ring
// and the in-flight list have grown before anything is measured.
func newBusRig(rate float64, warm int) *busRig {
	g := &busRig{b: NewCryoBus(64, bus77()), rng: rand.New(rand.NewSource(1)), rate: rate}
	for i := 0; i < warm; i++ {
		g.cycle()
	}
	return g
}

// cycle offers this cycle's packets and steps the bus once.
func (g *busRig) cycle() {
	now := g.b.Cycle()
	nodes := g.b.Nodes()
	for s := 0; s < nodes; s++ {
		if g.rng.Float64() >= g.rate {
			continue
		}
		g.b.TryInject(Packet{ID: g.id, Src: s, Dst: Uniform{}.Dest(s, nodes, g.rng), Flits: 1, InjectedAt: now})
		g.id++
	}
	g.b.Step()
}

// busRates are the CryoBus-64 loads the benchmark and the allocation
// gate use: mostly idle, moderate, and past the bus's saturation rate
// (every queue full).
var busRates = []float64{0.0005, 0.005, 0.05}

// BenchmarkBusStep times one CryoBus-64 cycle (traffic generation plus
// Step) in steady state at each of busRates.
func BenchmarkBusStep(b *testing.B) {
	for _, rate := range busRates {
		b.Run(fmt.Sprintf("rate=%g", rate), func(b *testing.B) {
			g := newBusRig(rate, 3000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.cycle()
			}
		})
	}
}

// TestBusStepAllocs asserts the bus cycle's zero-alloc contract: once
// the queue rings and the in-flight list have grown, a Step allocates
// nothing.
func TestBusStepAllocs(t *testing.T) {
	for _, rate := range busRates {
		g := newBusRig(rate, 3000)
		if allocs := testing.AllocsPerRun(500, g.cycle); allocs != 0 {
			t.Errorf("rate %g: warmed CryoBus-64 cycle allocates %v times, want 0", rate, allocs)
		}
		if g.b.Stats().Delivered == 0 {
			t.Errorf("rate %g: nothing delivered", rate)
		}
	}
}
