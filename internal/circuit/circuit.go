// Package circuit is a small transient circuit solver for driven
// distributed-RC lines — the "Hspice-lite" of this repository. The
// paper validates its wire and wire-link models against Hspice
// transient simulations (§2.3, §3.2.2, Fig 10); here the same role is
// played by numerically integrating the RC ladder ODE system and
// measuring 50 %-swing crossing times, which is exactly the quantity a
// SPICE .measure would report for these linear circuits.
package circuit

import (
	"fmt"
	"math"
	"sync"

	"cryowire/internal/phys"
	"cryowire/internal/wire"
)

// Ladder is a step-driven distributed RC line: a voltage step through a
// driver resistance into N equal RC segments with a lumped load at the
// far end.
type Ladder struct {
	RDrive   float64 // driver (Thevenin) resistance, Ω
	RTotal   float64 // total wire resistance, Ω
	CTotal   float64 // total wire capacitance, F
	CLoad    float64 // receiver load capacitance, F
	Segments int     // spatial discretization (≥1)
}

// Validate reports whether the ladder is well-formed.
func (ld Ladder) Validate() error {
	switch {
	case ld.Segments < 1:
		return fmt.Errorf("circuit: need at least 1 segment, have %d", ld.Segments)
	case ld.RDrive <= 0:
		return fmt.Errorf("circuit: non-positive driver resistance %v", ld.RDrive)
	case ld.RTotal < 0 || ld.CTotal < 0 || ld.CLoad < 0:
		return fmt.Errorf("circuit: negative RC element")
	case ld.CTotal == 0 && ld.CLoad == 0:
		return fmt.Errorf("circuit: no capacitance to charge")
	}
	return nil
}

// ElmoreDelay returns the analytic Elmore (first-moment) delay estimate
// for the same ladder — useful as a cross-check of the transient sim.
func (ld Ladder) ElmoreDelay() float64 {
	return 0.69*ld.RDrive*(ld.CTotal+ld.CLoad) + ld.RTotal*(0.38*ld.CTotal+0.69*ld.CLoad)
}

// maxSteps bounds one transient integration; a healthy ladder crosses
// 50 % within a few thousand steps of its Elmore-derived timestep.
const maxSteps = 20_000_000

// Early-exit tuning: once the far-end increment has been non-increasing
// for monotoneWindow consecutive steps, the response is past its
// inflection and future increments are bounded by the current one; if
// even noCrossMargin× the remaining-step budget at that rate cannot
// reach 50 %, the run is declared hopeless without grinding out the
// remaining millions of steps.
const (
	monotoneWindow = 64
	noCrossMargin  = 4.0
)

// ErrNoCrossing reports a transient run that ended without the far end
// reaching 50 % of the final value — either maxSteps elapsed, or the
// monotonicity check proved the crossing unreachable. It typically
// means the Elmore-derived timestep is pathologically mismatched to the
// true dominant time constant (e.g. a near-zero driver resistance with
// an enormous load).
type ErrNoCrossing struct {
	// Steps is how many trapezoidal steps were taken before giving up.
	Steps int
	// LastVoltage is the far-end voltage (of a 1.0 final value) when the
	// run stopped.
	LastVoltage float64
}

// Error implements error.
func (e *ErrNoCrossing) Error() string {
	return fmt.Sprintf("circuit: no 50%% crossing within %d steps (far end at %.3g of final value)", e.Steps, e.LastVoltage)
}

// Solver integrates ladder step responses using the implicit
// trapezoidal rule (A-stable, second order) with a tridiagonal (Thomas)
// solve per step. It owns the per-node scratch vectors, which are grown
// once and reused: after the first call at a given size, Delay50
// allocates nothing. A Solver is not safe for concurrent use; either
// keep one per goroutine or use the pooled Ladder.Delay50.
type Solver struct {
	caps, res, g, b []float64
	v, diag         []float64
	rhs, cp, dp     []float64
	off             []float64
}

// NewSolver returns an empty solver; scratch grows on first use.
func NewSolver() *Solver { return &Solver{} }

// grow sizes every scratch vector for an n-segment ladder.
func (s *Solver) grow(n int) {
	if cap(s.caps) < n+1 {
		s.caps = make([]float64, n+1)
		s.res = make([]float64, n+1)
		s.g = make([]float64, n+1)
		s.b = make([]float64, n+1)
		s.v = make([]float64, n+1)
		s.diag = make([]float64, n+1)
		s.rhs = make([]float64, n+1)
		s.cp = make([]float64, n+1)
		s.dp = make([]float64, n+1)
		s.off = make([]float64, n)
		return
	}
	s.caps = s.caps[:n+1]
	s.res = s.res[:n+1]
	s.g = s.g[:n+1]
	s.b = s.b[:n+1]
	s.v = s.v[:n+1]
	s.diag = s.diag[:n+1]
	s.rhs = s.rhs[:n+1]
	s.cp = s.cp[:n+1]
	s.dp = s.dp[:n+1]
	s.off = s.off[:n]
}

// Delay50 integrates the ladder's step response and returns the time at
// which the far-end node crosses 50 % of the final value; linear
// interpolation locates the crossing inside the final step. A run that
// provably cannot cross returns *ErrNoCrossing. The arithmetic is
// identical on fresh and reused scratch (every vector the integration
// reads is fully rewritten or re-zeroed here), so results are
// bit-identical regardless of solver reuse.
func (s *Solver) Delay50(ld Ladder) (float64, error) {
	if err := ld.Validate(); err != nil {
		return 0, err
	}
	n := ld.Segments
	s.grow(n)
	caps, res, g, off, b := s.caps, s.res, s.g, s.off, s.b
	v, diag, rhs, cp, dp := s.v, s.diag, s.rhs, s.cp, s.dp
	// Node capacitances: the distributed wire cap splits into half
	// segments at each internal boundary; the far end adds the load.
	cseg := ld.CTotal / float64(n)
	caps[0] = cseg / 2
	for i := 1; i < n; i++ {
		caps[i] = cseg
	}
	caps[n] = cseg/2 + ld.CLoad
	// Ensure strictly positive capacitance at every node for stability.
	for i := range caps {
		if caps[i] <= 0 {
			caps[i] = 1e-21
		}
	}
	rseg := ld.RTotal / float64(n)
	if rseg <= 0 {
		rseg = 1e-6 // an ideal wire still needs a conductance path
	}
	// Resistances between node i-1 and i (node -1 is the source through
	// the driver).
	res[0] = ld.RDrive
	for i := 1; i <= n; i++ {
		res[i] = rseg
	}

	// The timestep is set from the dominant (Elmore) time constant:
	// trapezoidal integration is A-stable, so stiff fast modes from the
	// spatial discretization cannot blow up and accuracy at the 50 %
	// crossing is governed by the slow mode.
	tauTotal := ld.ElmoreDelay() / 0.38
	dt := tauTotal / 4000
	if dt <= 0 || math.IsInf(dt, 0) || math.IsNaN(dt) {
		return 0, fmt.Errorf("circuit: degenerate timestep for ladder %+v", ld)
	}

	// Trapezoidal: (C/dt + G/2)·v_{k+1} = (C/dt − G/2)·v_k + b, where G
	// is the (tridiagonal) conductance matrix and b the source vector.
	for i := 0; i <= n; i++ {
		g[i] = 1 / res[i]
		if i < n {
			g[i] += 1 / res[i+1]
			off[i] = -1 / res[i+1]
		}
	}
	src := 1.0 // unit step
	b[0] = src / res[0]
	for i := 1; i <= n; i++ {
		b[i] = 0
	}
	for i := range v {
		v[i] = 0
	}

	prev := 0.0
	prevDv := math.Inf(1)
	decRun := 0
	for step := 1; step <= maxSteps; step++ {
		// Build rhs = (C/dt − G/2)·v + b.
		for i := 0; i <= n; i++ {
			r := (caps[i]/dt-g[i]/2)*v[i] + b[i]
			if i > 0 {
				r -= off[i-1] / 2 * v[i-1]
			}
			if i < n {
				r -= off[i] / 2 * v[i+1]
			}
			rhs[i] = r
			diag[i] = caps[i]/dt + g[i]/2
		}
		// Thomas algorithm with symmetric off-diagonals off[i]/2.
		cp[0] = off[0] / 2 / diag[0]
		dp[0] = rhs[0] / diag[0]
		for i := 1; i <= n; i++ {
			lower := off[i-1] / 2
			den := diag[i] - lower*cp[i-1]
			if i < n {
				cp[i] = off[i] / 2 / den
			}
			dp[i] = (rhs[i] - lower*dp[i-1]) / den
		}
		v[n] = dp[n]
		for i := n - 1; i >= 0; i-- {
			v[i] = dp[i] - cp[i]*v[i+1]
		}
		if v[n] >= 0.5*src {
			// Interpolate inside the step.
			frac := (0.5*src - prev) / (v[n] - prev)
			return (float64(step-1) + frac) * dt, nil
		}
		// Hopelessness check: the far-end step response is monotone with
		// a decreasing increment past its inflection. Once the increment
		// has been non-increasing for a full window, future steps gain at
		// most dv each — if even noCrossMargin× the remaining budget at
		// that rate cannot reach 50 % (or the increment has died to zero
		// in floating point), no crossing will ever happen and the
		// remaining millions of steps are skipped.
		dv := v[n] - prev
		if dv <= prevDv {
			decRun++
		} else {
			decRun = 0
		}
		prevDv = dv
		if decRun >= monotoneWindow &&
			(dv <= 0 || 0.5*src-v[n] > float64(maxSteps-step)*dv*noCrossMargin) {
			return 0, &ErrNoCrossing{Steps: step, LastVoltage: v[n]}
		}
		prev = v[n]
	}
	return 0, &ErrNoCrossing{Steps: maxSteps, LastVoltage: prev}
}

// solverPool backs the convenience Ladder.Delay50 so hot callers
// (sweeps) reuse scratch without threading a Solver through every call
// site.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// Delay50 integrates the ladder's step response using a pooled Solver;
// see Solver.Delay50. After warm-up this path allocates nothing.
func (ld Ladder) Delay50() (float64, error) {
	s := solverPool.Get().(*Solver)
	d, err := s.Delay50(ld)
	solverPool.Put(s)
	return d, err
}

// WireLadder builds the ladder for a driven wire line at the operating
// point, discretized into the given number of segments.
func WireLadder(l wire.Line, op phys.OperatingPoint, m *phys.MOSFET, segments int) Ladder {
	size := l.DriverSize
	if size <= 0 {
		size = 1
	}
	return Ladder{
		RDrive:   l.Driver.Resistance(op, m) / size,
		RTotal:   l.Spec.ResistancePerMM(op.T) * l.LengthMM,
		CTotal:   l.Spec.CapPerMM * l.LengthMM,
		CLoad:    l.Driver.LoadCap,
		Segments: segments,
	}
}

// SimulateWireDelay transiently simulates the driven wire and returns
// its 50 % delay in seconds.
// Kept for tests: it pins EXPERIMENTS.md's fig10 "link model vs transient-sim error" row.
func SimulateWireDelay(l wire.Line, op phys.OperatingPoint, m *phys.MOSFET) (float64, error) {
	return WireLadder(l, op, m, 60).Delay50()
}

// SimulateLinkDelay transiently simulates one repeatered wire-link hop:
// the repeater segmentation is taken from the discrete optimizer at the
// given operating point and each repeater stage is simulated as its own
// driven ladder (the standard SPICE methodology for repeated lines),
// plus the latch overhead of the link model.
func SimulateLinkDelay(lk wire.Link, op phys.OperatingPoint, m *phys.MOSFET) (float64, error) {
	l := wire.Line{Spec: wire.Global, LengthMM: lk.HopMM, Driver: lk.Driver, DriverSize: 1}
	segMM, size := wire.OptimalSegmentation(l.Spec, l.Driver, op, m)
	segments := int(math.Round(l.LengthMM / segMM))
	if segments < 1 {
		segments = 1
	}
	segLen := l.LengthMM / float64(segments)
	stage := Ladder{
		RDrive: lk.Driver.Resistance(op, m) / size,
		RTotal: l.Spec.ResistancePerMM(op.T) * segLen,
		// The repeater's own output parasitic sits on the wire it
		// drives; fold it into the distributed capacitance.
		CTotal:   l.Spec.CapPerMM*segLen + lk.Driver.Cpar*size,
		CLoad:    lk.Driver.Cin * size,
		Segments: 40,
	}
	d, err := stage.Delay50()
	if err != nil {
		return 0, err
	}
	total := d*float64(segments) + wire.InterfaceOverhead(lk.Driver, op, m)
	// Latch overhead, identical to the analytic link model.
	ref := phys.Nominal45
	wire300 := wire.OptimalRepeatedDelay(l, ref, m)
	latch300 := wire300 * lk.LatchFraction / (1 - lk.LatchFraction)
	return total + latch300*m.GateDelayFactor(op), nil
}

// SimulatedLinkSpeedup returns the transient-simulated 300K→op speed-up
// of a wire link; Fig 10 compares this against the analytic link model.
func SimulatedLinkSpeedup(lk wire.Link, op phys.OperatingPoint, m *phys.MOSFET) (float64, error) {
	d300, err := SimulateLinkDelay(lk, phys.Nominal45, m)
	if err != nil {
		return 0, err
	}
	dOp, err := SimulateLinkDelay(lk, op, m)
	if err != nil {
		return 0, err
	}
	return d300 / dOp, nil
}
