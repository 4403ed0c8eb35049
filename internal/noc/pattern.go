package noc

import (
	"fmt"
	"math/rand"
)

// Pattern generates destinations for synthetic traffic (§5.1, §7.2).
type Pattern interface {
	Name() string
	// Dest picks the destination for a packet injected at src.
	Dest(src, nodes int, rng *rand.Rand) int
}

// Uniform is uniform-random traffic — the pattern most favorable to
// router-based NoCs (§7.2).
type Uniform struct{}

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (Uniform) Dest(src, nodes int, rng *rand.Rand) int {
	d := rng.Intn(nodes - 1)
	if d >= src {
		d++
	}
	return d
}

// Transpose sends (x,y) → (y,x) on the square grid.
type Transpose struct{}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (Transpose) Dest(src, nodes int, _ *rand.Rand) int {
	side := gridSide(nodes)
	x, y := src%side, src/side
	d := x*side + y
	if d == src {
		d = (src + nodes/2) % nodes
	}
	return d
}

// BitReverse sends node i to the bit-reversal of i.
type BitReverse struct{}

// Name implements Pattern.
func (BitReverse) Name() string { return "bitreverse" }

// Dest implements Pattern.
func (BitReverse) Dest(src, nodes int, _ *rand.Rand) int {
	bits := 0
	for 1<<bits < nodes {
		bits++
	}
	d := 0
	for i := 0; i < bits; i++ {
		if src&(1<<i) != 0 {
			d |= 1 << (bits - 1 - i)
		}
	}
	if d == src {
		d = (src + nodes/2) % nodes
	}
	return d % nodes
}

// Hotspot sends a fraction of traffic to a small set of hot nodes and
// the rest uniformly.
type Hotspot struct {
	// HotFraction of packets target a hot node (default 0.2 when zero).
	HotFraction float64
	// Hot lists the hot nodes (defaults to node 0).
	Hot []int
}

// Name implements Pattern.
func (Hotspot) Name() string { return "hotspot" }

// Dest implements Pattern.
func (h Hotspot) Dest(src, nodes int, rng *rand.Rand) int {
	frac := h.HotFraction
	if frac == 0 {
		frac = 0.2
	}
	hot := h.Hot
	if len(hot) == 0 {
		hot = []int{0}
	}
	if rng.Float64() < frac {
		d := hot[rng.Intn(len(hot))]
		if d != src {
			return d
		}
	}
	return Uniform{}.Dest(src, nodes, rng)
}

// Burst is on/off (bursty) uniform traffic: sources alternate between
// an active state injecting at the full offered rate and a quiet state.
type Burst struct {
	// OnProb is the steady-state fraction of time a source is bursting
	// (default 0.3); burstiness raises instantaneous load by 1/OnProb.
	OnProb float64
}

// Name implements Pattern.
func (Burst) Name() string { return "burst" }

// Dest implements Pattern.
func (Burst) Dest(src, nodes int, rng *rand.Rand) int {
	return Uniform{}.Dest(src, nodes, rng)
}

// onProb returns the configured or default burst duty cycle.
func (b Burst) onProb() float64 {
	if b.OnProb <= 0 || b.OnProb > 1 {
		return 0.3
	}
	return b.OnProb
}

// gridSide returns the square-grid side for n nodes.
func gridSide(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// patterns is the name→pattern table behind PatternByName, in
// canonical order.
var patterns = []Pattern{Uniform{}, Transpose{}, BitReverse{}, Hotspot{}, Burst{}}

// PatternByName looks up a pattern for the CLI and experiments; an
// unknown name is an error that lists the valid ones.
func PatternByName(name string) (Pattern, error) {
	names := make([]string, len(patterns))
	for i, p := range patterns {
		if p.Name() == name {
			return p, nil
		}
		names[i] = p.Name()
	}
	return nil, fmt.Errorf("noc: unknown traffic pattern %q (have %v)", name, names)
}
