// Package floorplan holds the Table 1 unit geometry of the execution
// cluster (§3.1.2). The floorplan determines the length — and hence the
// latency — of the long inter-unit wires: the forwarding loop spans the
// stacked ALUs and register file. Unit areas come from synthesizing
// BOOM's units (Table 1).
package floorplan

// Micron is a distance in micrometres.
type Micron float64

// Unit is one microarchitectural unit.
type Unit struct {
	Name   string
	AreaUM float64 // µm²
	Width  Micron  // µm
}

// Height returns the unit's height, derived from area and width as the
// paper does for Table 1.
func (u Unit) Height() Micron {
	if u.Width <= 0 {
		return 0
	}
	return Micron(u.AreaUM / float64(u.Width))
}

// Table 1 geometry of the execution cluster, from synthesizing BOOM
// with the FreePDK 45 nm library.
const (
	ALUArea      = 25757.0  // µm²
	ALUWidth     = 345.0    // µm
	RegFileArea  = 376820.0 // µm²
	RegFileWidth = 345.0    // µm
	// ALUCount is the number of ALUs sharing the forwarding loop
	// (8-issue Skylake-class backend, following [39,48,49]: all ALUs and
	// the register file share one set of forwarding wires).
	ALUCount = 8
)

// ForwardingWireLength returns the forwarding-wire length of Table 1:
// the bypass bus spans all ALUs plus the register file, so its length
// is the stacked heights of those units (≈1686 µm).
func ForwardingWireLength() Micron {
	alu := Unit{Name: "alu", AreaUM: ALUArea, Width: ALUWidth}
	rf := Unit{Name: "regfile", AreaUM: RegFileArea, Width: RegFileWidth}
	return Micron(ALUCount)*alu.Height() + rf.Height()
}
