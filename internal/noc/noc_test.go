package noc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cryowire/internal/phys"
)

func mosfet() *phys.MOSFET { return phys.DefaultMOSFET() }

func timing300(router int) Timing { return MeshTiming(phys.Nominal45, mosfet(), router) }
func timing77(router int) Timing  { return MeshTiming(Op77(), mosfet(), router) }
func bus300() Timing              { return BusTiming(phys.Nominal45, mosfet()) }
func bus77() Timing               { return BusTiming(Op77(), mosfet()) }

func TestTimingAnchors(t *testing.T) {
	t300 := timing300(1)
	t77 := timing77(1)
	if t300.HopsPerCycle != 4 {
		t.Errorf("300K hops/cycle = %d, want 4", t300.HopsPerCycle)
	}
	if t77.HopsPerCycle != 12 {
		t.Errorf("77K hops/cycle = %d, want 12", t77.HopsPerCycle)
	}
	// §5.1: router frequency improves only ≈9.3 % at 77 K.
	gain := t77.FreqGHz/t300.FreqGHz - 1
	if gain < 0.07 || gain > 0.12 {
		t.Errorf("router frequency gain at 77K = %.1f%%, want ≈9.3%%", gain*100)
	}
}

func TestMeshXYRouting(t *testing.T) {
	m := NewMesh(64, timing300(1))
	// XY distance equals Manhattan distance for every pair.
	for a := 0; a < 64; a += 7 {
		for b := 0; b < 64; b += 5 {
			if a == b {
				continue
			}
			ax, ay := a%8, a/8
			bx, by := b%8, b/8
			want := abs(ax-bx) + abs(ay-by)
			if got := hopsBetween(m, a, b); got != want {
				t.Fatalf("mesh hops %d→%d = %d, want %d", a, b, got, want)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestFlattenedButterflyTwoHops(t *testing.T) {
	fb := NewFlattenedButterfly(64, timing300(1))
	for a := 0; a < 64; a += 3 {
		for b := 0; b < 64; b += 7 {
			if a/4 == b/4 {
				continue
			}
			if h := hopsBetween(fb, a, b); h > 2 {
				t.Fatalf("FB hops %d→%d = %d, want ≤ 2", a, b, h)
			}
		}
	}
}

func TestCMeshConcentration(t *testing.T) {
	cm := NewCMesh(64, timing300(1))
	if cm.Nodes() != 64 {
		t.Fatalf("nodes = %d", cm.Nodes())
	}
	if got := len(cm.routers); got != 16 {
		t.Fatalf("CMesh routers = %d, want 16", got)
	}
	// Same-router nodes are zero hops apart.
	if h := hopsBetween(cm, 0, 3); h != 0 {
		t.Errorf("same-router hops = %d, want 0", h)
	}
}

func TestMeshDeliversUnderLightLoad(t *testing.T) {
	m := NewMesh(64, timing300(1))
	rng := rand.New(rand.NewSource(1))
	var id int64
	injected := 0
	for cyc := 0; cyc < 3000; cyc++ {
		if cyc < 1000 {
			for s := 0; s < 64; s++ {
				if rng.Float64() < 0.01 {
					p := Packet{ID: id, Src: s, Dst: Uniform{}.Dest(s, 64, rng), Flits: 1, InjectedAt: m.Cycle()}
					id++
					if m.TryInject(p) {
						injected++
					}
				}
			}
		}
		m.Step()
	}
	st := m.Stats()
	if st.Delivered != int64(injected) {
		t.Errorf("delivered %d of %d injected (light load must fully drain)", st.Delivered, injected)
	}
	if st.AvgLatency() <= 0 {
		t.Error("zero average latency")
	}
	// Light-load latency must be near zero-load.
	if st.AvgLatency() > 2.5*m.ZeroLoadLatency() {
		t.Errorf("light-load latency %v vs zero-load %v", st.AvgLatency(), m.ZeroLoadLatency())
	}
}

func TestRouterNetRejectsBroadcast(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic injecting broadcast into a router network")
		}
	}()
	m := NewMesh(64, timing300(1))
	m.TryInject(Packet{Src: 0, Dst: Broadcast, Flits: 1})
}

func TestMatrixArbiterFairness(t *testing.T) {
	a := NewMatrixArbiter(4)
	req := []bool{true, true, true, true}
	grants := make(map[int]int)
	for i := 0; i < 400; i++ {
		g, err := a.Grant(boolMask(req))
		if err != nil {
			t.Fatal(err)
		}
		if g < 0 {
			t.Fatal("arbiter granted nobody with all requesting")
		}
		grants[g]++
	}
	for i := 0; i < 4; i++ {
		if grants[i] != 100 {
			t.Errorf("requester %d got %d grants of 400, want 100 (LRU fairness)", i, grants[i])
		}
	}
	// No request → no grant.
	if g, err := a.Grant(boolMask([]bool{false, false, false, false})); err != nil || g != -1 {
		t.Errorf("grant with no requests = %d, %v, want -1, nil", g, err)
	}
}

func TestMatrixArbiterSingleRequester(t *testing.T) {
	a := NewMatrixArbiter(8)
	req := make([]bool, 8)
	req[5] = true
	for i := 0; i < 10; i++ {
		if g, err := a.Grant(boolMask(req)); err != nil || g != 5 {
			t.Fatalf("grant = %d, %v, want 5, nil", g, err)
		}
	}
}

func TestMatrixArbiterStarvationFreedom(t *testing.T) {
	// One hot requester asking every cycle must not starve a requester
	// that asks every cycle too but starts as lowest priority: with the
	// LRU matrix, any persistent requester is granted within n cycles.
	const n = 8
	a := NewMatrixArbiter(n)
	req := make([]bool, n)
	for i := range req {
		req[i] = true
	}
	lastGrant := make([]int, n)
	for i := range lastGrant {
		lastGrant[i] = -1
	}
	for cyc := 0; cyc < 1000; cyc++ {
		g, err := a.Grant(boolMask(req))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if i != g && lastGrant[i] >= 0 && cyc-lastGrant[i] > n {
				t.Fatalf("requester %d starved: no grant between cycles %d and %d", i, lastGrant[i], cyc)
			}
		}
		lastGrant[g] = cyc
	}
}

func TestMatrixArbiterAdversarialPatterns(t *testing.T) {
	const n = 4
	t.Run("one hot vs the field", func(t *testing.T) {
		// Requester 0 asks every cycle; the others ask on alternating
		// cycles. Nobody may be locked out, and requester 0 must not
		// monopolize the bus.
		a := NewMatrixArbiter(n)
		grants := make([]int, n)
		for cyc := 0; cyc < 800; cyc++ {
			req := []bool{true, cyc%2 == 0, cyc%2 == 1, cyc%2 == 0}
			g, err := a.Grant(boolMask(req))
			if err != nil {
				t.Fatal(err)
			}
			if g < 0 {
				t.Fatal("no grant while requests pending")
			}
			grants[g]++
		}
		for i, c := range grants {
			if c == 0 {
				t.Errorf("requester %d never granted", i)
			}
		}
		if grants[0] > 500 {
			t.Errorf("hot requester monopolized: %d of 800 grants", grants[0])
		}
	})
	t.Run("alternating pairs", func(t *testing.T) {
		// Even and odd requesters alternate; within each phase the LRU
		// matrix must keep splitting grants evenly.
		a := NewMatrixArbiter(n)
		grants := make([]int, n)
		for cyc := 0; cyc < 400; cyc++ {
			even := cyc%2 == 0
			req := []bool{even, !even, even, !even}
			g, err := a.Grant(boolMask(req))
			if err != nil {
				t.Fatal(err)
			}
			grants[g]++
		}
		for i, c := range grants {
			if c != 100 {
				t.Errorf("requester %d got %d of 400 grants, want 100", i, c)
			}
		}
	})
}

func TestMatrixArbiterMisSizedRequestSlice(t *testing.T) {
	a := NewMatrixArbiter(4)
	for _, bad := range [][]uint64{nil, make([]uint64, 2), {1 << 4}, {1 << 63}} {
		g, err := a.Grant(bad)
		if err == nil {
			t.Errorf("mis-sized request mask %x not rejected", bad)
		}
		if g != -1 {
			t.Errorf("mis-sized request mask %x granted %d", bad, g)
		}
	}
	// The arbiter must stay usable after a rejected call.
	if g, err := a.Grant([]uint64{1}); err != nil || g != 0 {
		t.Errorf("grant after rejection = %d, %v, want 0, nil", g, err)
	}
}

// boolMask packs a request vector into the arbiter's mask layout: bit
// i of word i/64 is requester i.
func boolMask(req []bool) []uint64 {
	m := make([]uint64, (len(req)+63)/64)
	for i, r := range req {
		if r {
			m[i/64] |= 1 << (i % 64)
		}
	}
	return m
}

func TestFig20BroadcastLatencies(t *testing.T) {
	// Fig 20 decomposition: broadcast cycles for the four bus designs.
	cases := []struct {
		bus  *Bus
		want float64
	}{
		{NewSharedBus300(64, bus300()), 8}, // 30 hops / 4 per cycle
		{NewSharedBus77(64, bus77()), 3},   // 30 / 12
		{NewHTreeBus300(64, bus300()), 3},  // 12 / 4
		{NewCryoBus(64, bus77()), 1},       // 12 / 12 — the 1-cycle broadcast
	}
	for _, c := range cases {
		_, _, _, bc := c.bus.Breakdown()
		if bc != c.want {
			t.Errorf("%s broadcast = %v cycles, want %v", c.bus.Name(), bc, c.want)
		}
	}
}

func TestCryoBusControlCycle(t *testing.T) {
	// §5.2.3: the dynamic link connection costs one extra control cycle
	// in the grant path but must not appear in the broadcast occupancy.
	cb := NewCryoBus(64, bus77())
	_, arb, grant, _ := cb.Breakdown()
	plain := NewSharedBus77(64, bus77())
	_, _, plainGrant, _ := plain.Breakdown()
	if arb != 1 {
		t.Errorf("arbitration = %v, want 1", arb)
	}
	if grant <= plainGrant-1 {
		t.Errorf("CryoBus grant+control (%v) should include the extra control cycle", grant)
	}
}

func TestBusZeroLoadOrdering(t *testing.T) {
	sb300 := NewSharedBus300(64, bus300())
	sb77 := NewSharedBus77(64, bus77())
	cb := NewCryoBus(64, bus77())
	if !(cb.ZeroLoadLatency() < sb77.ZeroLoadLatency() && sb77.ZeroLoadLatency() < sb300.ZeroLoadLatency()) {
		t.Errorf("zero-load ordering wrong: CryoBus %v, 77K bus %v, 300K bus %v",
			cb.ZeroLoadLatency(), sb77.ZeroLoadLatency(), sb300.ZeroLoadLatency())
	}
	// CryoBus must undercut even the 77 K mesh (Guideline #1).
	mesh77 := NewMesh(64, timing77(1))
	if cb.ZeroLoadLatency() >= mesh77.ZeroLoadLatency() {
		t.Errorf("CryoBus zero-load %v not below 77K mesh %v", cb.ZeroLoadLatency(), mesh77.ZeroLoadLatency())
	}
}

func TestHTreeLayoutGeometry(t *testing.T) {
	h := NewHTree(64)
	if h.BroadcastHops() != 12 {
		t.Errorf("H-tree broadcast hops = %d, want 12", h.BroadcastHops())
	}
	if h.ReqHops(0) != 6 || h.ReqHops(63) != 6 {
		t.Error("every H-tree leaf should be 6 hops from the root arbiter")
	}
	s := NewSerpentine(64)
	if s.BroadcastHops() != 30 {
		t.Errorf("serpentine broadcast hops = %d, want 30 (§5.2.1)", s.BroadcastHops())
	}
	// Path hops: same 2×2 block is cheap, across the die is the span.
	if d := h.PathHops(0, 1); d != 2 {
		t.Errorf("H-tree neighbor path = %d, want 2", d)
	}
	if d := h.PathHops(0, 63); d != 12 {
		t.Errorf("H-tree corner-to-corner = %d, want 12", d)
	}
	if d := h.PathHops(5, 5); d != 0 {
		t.Errorf("self path = %d, want 0", d)
	}
}

func TestHTreePathSymmetryProperty(t *testing.T) {
	h := NewHTree(64)
	f := func(a, b uint8) bool {
		x, y := int(a)%64, int(b)%64
		return h.PathHops(x, y) == h.PathHops(y, x) && h.PathHops(x, y) <= h.BroadcastHops()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBusDeliversBroadcasts(t *testing.T) {
	cb := NewCryoBus(64, bus77())
	p := Packet{ID: 1, Src: 10, Dst: Broadcast, Flits: 1, InjectedAt: 0}
	if !cb.TryInject(p) {
		t.Fatal("inject failed on idle bus")
	}
	for i := 0; i < 50; i++ {
		cb.Step()
	}
	if cb.Stats().Delivered != 1 {
		t.Fatalf("broadcast not delivered")
	}
	// Zero-load CryoBus transaction: ~1 req + 1 arb + 1+1 grant/control +
	// 1 broadcast ≈ 5 cycles.
	if lat := cb.Stats().AvgLatency(); lat < 3 || lat > 8 {
		t.Errorf("CryoBus zero-load broadcast latency = %v cycles, want ≈5", lat)
	}
}

func TestSaturationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation sweep is slow")
	}
	cfg := SweepConfig{Pattern: Uniform{}, Seed: 42, WarmupCycles: 1000, MeasureCycles: 4000}
	sat300 := SaturationRate(func() Network { return NewSharedBus300(64, bus300()) }, cfg)
	sat77 := SaturationRate(func() Network { return NewSharedBus77(64, bus77()) }, cfg)
	satCryo := SaturationRate(func() Network { return NewCryoBus(64, bus77()) }, cfg)
	if !(sat300 < sat77 && sat77 < satCryo) {
		t.Errorf("saturation ordering wrong: 300K bus %v, 77K bus %v, CryoBus %v", sat300, sat77, satCryo)
	}
	// Guideline #2 quantities: the 77 K shared bus roughly triples the
	// 300 K bandwidth (8-cycle vs 3-cycle broadcasts); CryoBus roughly
	// triples it again.
	if sat77/sat300 < 1.8 {
		t.Errorf("77K/300K bus bandwidth ratio = %v, want ≳2.5", sat77/sat300)
	}
	if satCryo/sat77 < 1.8 {
		t.Errorf("CryoBus/77K bus bandwidth ratio = %v, want ≳2.5", satCryo/sat77)
	}
}

func TestInterleavingDoublesBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation sweep is slow")
	}
	cfg := SweepConfig{Pattern: Uniform{}, Seed: 7, WarmupCycles: 1000, MeasureCycles: 4000}
	one := SaturationRate(func() Network { return NewCryoBus(64, bus77()) }, cfg)
	two := SaturationRate(func() Network {
		return NewInterleavedBus(2, func() *Bus { return NewCryoBus(64, bus77()) })
	}, cfg)
	if two < 1.5*one {
		t.Errorf("2-way interleaving bandwidth %v vs 1-way %v: want ≈2×", two, one)
	}
}

func TestLoadLatencyCurveShape(t *testing.T) {
	cfg := SweepConfig{
		Pattern: Uniform{}, Seed: 3,
		Rates:        []float64{0.001, 0.004, 0.008, 0.02, 0.06, 0.15},
		WarmupCycles: 800, MeasureCycles: 2500,
	}
	pts := LoadLatency(func() Network { return NewMesh(64, timing77(1)) }, cfg)
	if len(pts) < 2 {
		t.Fatalf("sweep returned %d points", len(pts))
	}
	// Latency is non-decreasing in offered load (within noise).
	for i := 1; i < len(pts); i++ {
		if pts[i].AvgLatency < pts[i-1].AvgLatency*0.9 {
			t.Errorf("latency dropped with load: %v then %v", pts[i-1], pts[i])
		}
	}
	// First point is near zero-load.
	z := NewMesh(64, timing77(1)).ZeroLoadLatency()
	if pts[0].AvgLatency > 2*z {
		t.Errorf("low-rate latency %v vs zero-load %v", pts[0].AvgLatency, z)
	}
}

func TestPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, name := range []string{"uniform", "transpose", "bitreverse", "hotspot", "burst"} {
		p, err := PatternByName(name)
		if err != nil {
			t.Fatalf("PatternByName(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("pattern name %q != %q", p.Name(), name)
		}
		for src := 0; src < 64; src++ {
			d := p.Dest(src, 64, rng)
			if d < 0 || d >= 64 {
				t.Fatalf("%s dest out of range: %d", name, d)
			}
			if d == src {
				t.Fatalf("%s produced self-destination for %d", name, src)
			}
		}
	}
	// An unknown name, tornado and neighbor included, is an error that
	// lists the valid ones.
	for _, name := range []string{"nope", "tornado", "neighbor"} {
		_, err := PatternByName(name)
		if err == nil || !strings.Contains(err.Error(), "uniform transpose bitreverse hotspot burst") {
			t.Errorf("PatternByName(%q) error = %v, want one listing the five patterns", name, err)
		}
	}
}

func TestTransposeIsInvolution(t *testing.T) {
	p := Transpose{}
	for src := 0; src < 64; src++ {
		if src%8 == src/8 {
			continue // diagonal nodes are remapped, not transposed
		}
		d := p.Dest(src, 64, nil)
		if back := p.Dest(d, 64, nil); back != src {
			t.Errorf("transpose not an involution at %d: %d → %d", src, d, back)
		}
	}
}

func TestHybridDelivers(t *testing.T) {
	h := NewHybridCryoBus(bus77(), timing77(1))
	if h.Nodes() != 256 {
		t.Fatalf("hybrid nodes = %d, want 256", h.Nodes())
	}
	rng := rand.New(rand.NewSource(5))
	var id int64
	injected := 0
	for cyc := 0; cyc < 4000; cyc++ {
		if cyc < 1500 {
			for s := 0; s < 256; s += 4 {
				if rng.Float64() < 0.008 {
					p := Packet{ID: id, Src: s, Dst: Uniform{}.Dest(s, 256, rng), Flits: 1, InjectedAt: h.Cycle()}
					id++
					if h.TryInject(p) {
						injected++
					}
				}
			}
		}
		h.Step()
	}
	st := h.Stats()
	if st.Delivered != int64(injected) {
		t.Errorf("hybrid delivered %d of %d", st.Delivered, injected)
	}
	if st.AvgLatency() <= 0 || st.AvgLatency() > 100 {
		t.Errorf("hybrid light-load latency = %v cycles", st.AvgLatency())
	}
}

func TestBusRejectsWhenFull(t *testing.T) {
	b := NewBus(BusConfig{Name: "tiny", Nodes: 4, Layout: NewSerpentine(4), Timing: bus300()})
	for i := 0; i < busQueueCap; i++ {
		if !b.TryInject(Packet{ID: int64(i), Src: 0, Dst: Broadcast, Flits: 1}) {
			t.Fatalf("injection %d of %d should fit", i+1, busQueueCap)
		}
	}
	if b.TryInject(Packet{ID: busQueueCap, Src: 0, Dst: Broadcast, Flits: 1}) {
		t.Error("injection past the queue cap should be rejected")
	}
}

func TestWireCycles(t *testing.T) {
	tm := Timing{FreqGHz: 4, HopsPerCycle: 4}
	cases := map[int]int{0: 0, 1: 1, 4: 1, 5: 2, 12: 3, 30: 8}
	for hops, want := range cases {
		if got := tm.WireCycles(hops); got != want {
			t.Errorf("WireCycles(%d) = %d, want %d", hops, got, want)
		}
	}
}

func TestEnergyCountersMesh(t *testing.T) {
	m := NewMesh(64, timing300(1))
	p := Packet{ID: 1, Src: 0, Dst: 63, Flits: 2, InjectedAt: 0}
	if !m.TryInject(p) {
		t.Fatal("inject failed")
	}
	for i := 0; i < 200; i++ {
		m.Step()
	}
	e := m.Energy()
	// 0→63 is 14 router hops × 2mm × 2 flits = 56 mm·flits.
	if e.RouterTraversals != 14 {
		t.Errorf("router traversals = %d, want 14", e.RouterTraversals)
	}
	if e.WireMMFlits != 56 {
		t.Errorf("wire energy = %v mm·flits, want 56", e.WireMMFlits)
	}
}

func TestEnergyDynamicLinksSaveWire(t *testing.T) {
	// The §5.2.3 power argument: for directed transfers, dynamic links
	// drive only the source→destination path.
	run := func(dyn bool) float64 {
		b := NewBus(BusConfig{Name: "e", Nodes: 64, Layout: NewHTree(64),
			Timing: bus77(), ControlCycles: 1, DynamicLinks: dyn})
		p := Packet{ID: 1, Src: 0, Dst: 1, Flits: 1, InjectedAt: 0}
		b.TryInject(p)
		for i := 0; i < 100; i++ {
			b.Step()
		}
		return b.Energy().WireMMFlits
	}
	static := run(false)
	dynamic := run(true)
	if dynamic >= static {
		t.Errorf("dynamic-link wire energy %v not below static %v", dynamic, static)
	}
	// Neighbor transfer: 2 hops × 2mm vs full 12-hop broadcast.
	if dynamic != 4 || static != 24 {
		t.Errorf("wire energy = %v/%v mm, want 4/24", dynamic, static)
	}
}

func TestBroadcastAlwaysFullSpan(t *testing.T) {
	b := NewCryoBus(64, bus77())
	p := Packet{ID: 1, Src: 5, Dst: Broadcast, Flits: 1, InjectedAt: 0}
	b.TryInject(p)
	for i := 0; i < 100; i++ {
		b.Step()
	}
	if got := b.Energy().WireMMFlits; got != 24 {
		t.Errorf("broadcast wire energy = %v mm, want the full 24mm H-tree span", got)
	}
	if b.Energy().Arbitrations != 1 {
		t.Errorf("arbitrations = %d, want 1", b.Energy().Arbitrations)
	}
}
