package wire

import (
	"fmt"
	"math"

	"cryowire/internal/phys"
)

// This file holds the discrete counterpart of the closed-form
// OptimalRepeatedDelay: a segment-by-segment Elmore model of a
// repeated line and an exhaustive search over repeater count and size.
// The tests use it as a brute-force reference for the closed form.

// repeated is a line broken into equal segments by repeaters.
type repeated struct {
	Line     Line
	Segments int     // number of wire segments (repeaters = Segments-1 plus the driver)
	Size     float64 // repeater strength in unit-driver multiples
}

// Delay returns the total delay (seconds) of the repeated line: each of
// the k segments is an Elmore stage driving the next repeater's input
// capacitance (the last segment drives the receiver load), and the
// first repeater's input is charged by a fixed unit-size upstream stage
// — this source term is what bounds the optimal repeater size.
func (r repeated) Delay(op phys.OperatingPoint, m *phys.MOSFET) float64 {
	if r.Segments < 1 {
		panic(fmt.Sprintf("wire: repeated line with %d segments", r.Segments))
	}
	l := r.Line
	segLen := l.LengthMM / float64(r.Segments)
	rUnit := l.Driver.Resistance(op, m)
	rd := rUnit / r.Size
	rw := l.Spec.ResistancePerMM(op.T) * segLen
	cw := l.Spec.CapPerMM * segLen
	cnext := l.Driver.Cin * r.Size
	intrinsic := 0.69 * rUnit * l.Driver.Cpar // size-independent self-load delay
	total := 0.0
	for i := 0; i < r.Segments; i++ {
		load := cnext
		if i == r.Segments-1 {
			load = l.Driver.LoadCap
		}
		total += intrinsic + 0.69*rd*(cw+load) + rw*(0.38*cw+0.69*load)
	}
	return total
}

// optimizeRepeaters searches for the latency-minimal repeater count and
// size for the line at the given operating point ("inserted in a
// latency-optimizing manner", §2.3). The search is exhaustive over
// segment counts and a geometric size grid — the objective is smooth
// and unimodal so this finds the global optimum to grid resolution.
func optimizeRepeaters(l Line, op phys.OperatingPoint, m *phys.MOSFET) repeated {
	best := repeated{Line: l, Segments: 1, Size: 1}
	bestDelay := math.Inf(1)
	maxSeg := int(l.LengthMM*20) + 2 // up to one repeater per 50 µm
	if maxSeg > 400 {
		maxSeg = 400
	}
	for k := 1; k <= maxSeg; k++ {
		for s := 1.0; s <= 64; s *= 1.12 { // repeater strength capped at 64× unit
			cand := repeated{Line: l, Segments: k, Size: s}
			d := cand.Delay(op, m)
			if d < bestDelay {
				bestDelay = d
				best = cand
			}
		}
	}
	return best
}
