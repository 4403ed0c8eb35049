package floorplan

import (
	"fmt"
	"math"
)

// This file places the Table 1 units on a Skylake-client-like die, in
// the arrangement of the WikiChip die shot the paper adopts. No model
// reads the placement; the tests use it to check that the die geometry
// agrees with the forwarding-wire length the pipeline model assumes.

// placed is a unit with its lower-left corner position on the die.
type placed struct {
	Unit
	X, Y Micron
}

// center returns the unit's center point.
func (u placed) center() (Micron, Micron) {
	return u.X + u.Width/2, u.Y + u.Height()/2
}

// floorplan is a named collection of placed units.
type floorplan struct {
	name  string
	units map[string]placed
}

func newFloorplan(name string) *floorplan {
	return &floorplan{name: name, units: make(map[string]placed)}
}

// place adds (or replaces) a unit.
func (f *floorplan) place(u placed) { f.units[u.Name] = u }

// unit returns the named unit.
func (f *floorplan) unit(name string) (placed, error) {
	u, ok := f.units[name]
	if !ok {
		return placed{}, fmt.Errorf("floorplan: no unit %q in %s", name, f.name)
	}
	return u, nil
}

// distance returns the Manhattan center-to-center distance between two
// placed units — the routing length a semi-global inter-unit wire must
// cover.
func (f *floorplan) distance(a, b string) (Micron, error) {
	ua, err := f.unit(a)
	if err != nil {
		return 0, err
	}
	ub, err := f.unit(b)
	if err != nil {
		return 0, err
	}
	ax, ay := ua.center()
	bx, by := ub.center()
	return Micron(math.Abs(float64(ax-bx)) + math.Abs(float64(ay-by))), nil
}

// adjacent reports whether two units abut (share an edge region),
// meaning their connecting wires are short enough that the synthesis
// flow alone models them (the ②-1 path in Fig 6); non-adjacent pairs
// need the explicit Hspice-style inter-unit wire model (②-2).
func (f *floorplan) adjacent(a, b string) (bool, error) {
	d, err := f.distance(a, b)
	if err != nil {
		return false, err
	}
	ua, _ := f.unit(a)
	ub, _ := f.unit(b)
	// Units whose center distance is within the sum of their half
	// extents (plus a small routing margin) are considered adjacent.
	extent := (ua.Width + ua.Height() + ub.Width + ub.Height()) / 2
	return d <= extent*0.75, nil
}

// skylake returns the Skylake-client-like core floorplan: the execution
// stack (ALUs over the register file) with the scheduler,
// rename/allocate block, decode block and frontend placed around it.
// Coordinates are in µm; only relative distances matter.
func skylake() *floorplan {
	f := newFloorplan("skylake-client-like")
	aluH := Micron(ALUArea / ALUWidth)
	rfH := Micron(RegFileArea / RegFileWidth)
	at := func(name string, area float64, width, x, y Micron) placed {
		return placed{Unit{Name: name, AreaUM: area, Width: width}, x, y}
	}
	// Execution stack at x=0: 8 ALUs stacked above the register file.
	f.place(at("regfile", RegFileArea, RegFileWidth, 0, 0))
	for i := 0; i < ALUCount; i++ {
		f.place(at(fmt.Sprintf("alu%d", i), ALUArea, ALUWidth, 0, rfH+Micron(i)*aluH))
	}
	// Scheduler (issue queue + wakeup/select CAM) beside the regfile.
	f.place(at("scheduler", 180000, 300, 360, 0))
	// Rename/allocate above the scheduler.
	f.place(at("rename", 90000, 300, 360, 620))
	// Decoders next to rename.
	f.place(at("decode", 110000, 300, 360, 930))
	// Branch prediction + I-cache frontend at the top.
	f.place(at("btb", 70000, 330, 680, 1100))
	f.place(at("icache", 260000, 420, 680, 0))
	f.place(at("branchchecker", 40000, 200, 680, 880))
	// Load/store unit + data cache on the far side.
	f.place(at("lsq", 120000, 300, 1120, 600))
	f.place(at("dcache", 300000, 420, 1120, 0))
	return f
}
