package floorplan

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable1Geometry(t *testing.T) {
	alu := Unit{Name: "alu", AreaUM: ALUArea, Width: ALUWidth}
	rf := Unit{Name: "rf", AreaUM: RegFileArea, Width: RegFileWidth}
	// Table 1: ALU height ≈74 µm, register file height ≈1090 µm.
	if h := float64(alu.Height()); math.Abs(h-74) > 1.5 {
		t.Errorf("ALU height = %v, want ≈74 µm", h)
	}
	if h := float64(rf.Height()); math.Abs(h-1090) > 5 {
		t.Errorf("regfile height = %v, want ≈1090 µm", h)
	}
}

func TestForwardingWireLength(t *testing.T) {
	// Table 1: 8×ALU + regfile heights = 1686 µm.
	got := float64(ForwardingWireLength())
	if math.Abs(got-1686)/1686 > 0.005 {
		t.Errorf("forwarding wire length = %v µm, want 1686 ±0.5%%", got)
	}
}

func TestSkylakeFloorplan(t *testing.T) {
	f := skylake()
	if len(f.units) < 10 {
		t.Fatalf("Skylake floorplan has %d units, want the full core complement", len(f.units))
	}
	for _, name := range []string{"regfile", "alu0", "alu7", "scheduler", "rename", "decode", "btb", "icache", "branchchecker", "lsq", "dcache"} {
		if _, err := f.unit(name); err != nil {
			t.Errorf("missing unit: %v", err)
		}
	}
	if _, err := f.unit("nonexistent"); err == nil {
		t.Error("expected error for unknown unit")
	}
}

func TestDistanceSymmetricAndTriangle(t *testing.T) {
	f := skylake()
	dab, err := f.distance("regfile", "icache")
	if err != nil {
		t.Fatal(err)
	}
	dba, _ := f.distance("icache", "regfile")
	if dab != dba {
		t.Errorf("distance not symmetric: %v vs %v", dab, dba)
	}
	if dab <= 0 {
		t.Errorf("distance regfile→icache = %v, want > 0", dab)
	}
	// Manhattan triangle inequality through an intermediate unit.
	dac, _ := f.distance("regfile", "decode")
	dcb, _ := f.distance("decode", "icache")
	if dab > dac+dcb+1e-9 {
		t.Errorf("triangle inequality violated: %v > %v + %v", dab, dac, dcb)
	}
}

func TestDistanceSelfIsZero(t *testing.T) {
	f := skylake()
	d, err := f.distance("regfile", "regfile")
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
}

func TestForwardingStackIsLong(t *testing.T) {
	// The execution stack spans the forwarding-wire length: alu7 must be
	// far from the register file — this is why the bypass wires dominate
	// the backend critical paths.
	f := skylake()
	d, err := f.distance("regfile", "alu7")
	if err != nil {
		t.Fatal(err)
	}
	if float64(d) < 1000 {
		t.Errorf("regfile→alu7 distance = %v µm, want > 1000 (a long semi-global span)", d)
	}
}

func TestAdjacency(t *testing.T) {
	f := skylake()
	// Decode and rename abut (compiled together, Fig 7(b) path ②-1).
	adj, err := f.adjacent("decode", "rename")
	if err != nil {
		t.Fatal(err)
	}
	if !adj {
		t.Error("decode and rename should be adjacent")
	}
	// The regfile and the farthest ALU are not (path ②-2: Hspice-style
	// inter-unit wire modeling).
	adj, err = f.adjacent("regfile", "alu7")
	if err != nil {
		t.Fatal(err)
	}
	if adj {
		t.Error("regfile and alu7 should not be adjacent")
	}
}

func TestUnitHeightProperty(t *testing.T) {
	// Height × width always recovers area for positive widths.
	f := func(rawArea, rawWidth uint16) bool {
		area := 100 + float64(rawArea)
		width := 10 + float64(rawWidth%1000)
		u := Unit{AreaUM: area, Width: Micron(width)}
		return math.Abs(float64(u.Height())*width-area) < 1e-6*area
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if (Unit{AreaUM: 100, Width: 0}).Height() != 0 {
		t.Error("zero-width unit should report zero height, not Inf")
	}
}

func TestPlaceReplaces(t *testing.T) {
	f := newFloorplan("test")
	f.place(placed{Unit{Name: "u", AreaUM: 100, Width: 10}, 0, 0})
	f.place(placed{Unit{Name: "u", AreaUM: 200, Width: 10}, 5, 5})
	u, err := f.unit("u")
	if err != nil {
		t.Fatal(err)
	}
	if u.AreaUM != 200 || u.X != 5 {
		t.Errorf("Place should replace: got %+v", u)
	}
	if len(f.units) != 1 {
		t.Errorf("expected 1 unit after replace, got %d", len(f.units))
	}
}
