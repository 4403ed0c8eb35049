package noc

import (
	"math/rand"
	"testing"
)

// TestRingTorusDeadlockPastSaturation pins a known deviation (see
// EXPERIMENTS.md, "Known deviations and their causes"): ring and torus
// route over their wrap-around links with no dateline virtual channel,
// so past saturation the credit loop around a ring closes and the
// packets in it never move again. Uniform traffic at 0.6 packets per
// node per cycle for 2,000 cycles, then 20,000 cycles with no new
// traffic, must leave packets in the network and deliver nothing over
// the last 10,000 cycles. A dateline fix makes this test fail; replace
// it then with one that asserts the drain completes.
func TestRingTorusDeadlockPastSaturation(t *testing.T) {
	const genCycles, drainCycles, rate = 2000, 20000, 0.6
	for _, tc := range []struct {
		design string
		nodes  int
		mesh   Timing
	}{
		{"ring", 16, timing77(1)},
		{"torus", 64, timing300(1)},
	} {
		t.Run(tc.design, func(t *testing.T) {
			n, err := NewByName(tc.design, tc.nodes, tc.mesh, bus77())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			pending := make([][]*Packet, tc.nodes)
			var id, injected, midDelivered int64
			for cyc := 0; cyc < genCycles+drainCycles; cyc++ {
				for s := 0; s < tc.nodes && cyc < genCycles; s++ {
					if rng.Float64() < rate {
						p := &Packet{ID: id, Src: s, Dst: Uniform{}.Dest(s, tc.nodes, rng), Flits: 1, InjectedAt: n.Cycle()}
						id++
						pending[s] = append(pending[s], p)
					}
				}
				for s := range pending {
					for len(pending[s]) > 0 && n.TryInject(pending[s][0]) {
						pending[s] = pending[s][1:]
						injected++
					}
				}
				n.Step()
				if cyc == genCycles+drainCycles/2 {
					midDelivered = n.Stats().Delivered
				}
			}
			if got := n.Stats().Delivered; got != midDelivered {
				t.Errorf("%d packets delivered in the last %d drain cycles, want 0 (deadlocked)", got-midDelivered, drainCycles/2)
			}
			stuck := injected - n.Stats().Delivered
			if stuck == 0 {
				t.Fatalf("all %d injected packets drained: the wrap-around deadlock this test pins is gone", injected)
			}
			t.Logf("%s-%d: %d of %d injected packets stuck after %d drain cycles", tc.design, tc.nodes, stuck, injected, drainCycles)
		})
	}
}
