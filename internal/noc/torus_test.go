package noc

import (
	"math/rand"
	"testing"
)

func TestTorusWrapRouting(t *testing.T) {
	tr := NewTorus(64, timing300(1))
	// Corner to corner: the torus wraps, so (0,0)→(7,7) is 1+1 hops.
	if h := hopsBetween(tr, 0, 63); h != 2 {
		t.Errorf("torus corner-to-corner hops = %d, want 2 (wrap)", h)
	}
	// Maximum distance is side/2 per dimension = 8.
	for a := 0; a < 64; a += 5 {
		for b := 0; b < 64; b += 3 {
			if a == b {
				continue
			}
			if h := hopsBetween(tr, a, b); h > 8 {
				t.Fatalf("torus hops %d→%d = %d, want ≤ 8", a, b, h)
			}
		}
	}
}

func TestTorusBeatsMeshZeroLoad(t *testing.T) {
	tr := NewTorus(64, timing300(1))
	m := NewMesh(64, timing300(1))
	// Wrap links halve average hops; even with the folded 2-pitch links
	// the torus should not be slower at 77K-class wire speed.
	tr77 := NewTorus(64, timing77(1))
	m77 := NewMesh(64, timing77(1))
	if tr77.ZeroLoadLatency() >= m77.ZeroLoadLatency() {
		t.Errorf("77K torus zero-load %v not below mesh %v", tr77.ZeroLoadLatency(), m77.ZeroLoadLatency())
	}
	_ = tr
	_ = m
}

func TestTorusDeliversTraffic(t *testing.T) {
	tr := NewTorus(64, timing300(1))
	rng := rand.New(rand.NewSource(8))
	injected := 0
	var id int64
	for cyc := 0; cyc < 3000; cyc++ {
		if cyc < 1000 {
			for s := 0; s < 64; s++ {
				if rng.Float64() < 0.01 {
					p := &Packet{ID: id, Src: s, Dst: Uniform{}.Dest(s, 64, rng), Flits: 1, InjectedAt: tr.Cycle()}
					id++
					if tr.TryInject(p) {
						injected++
					}
				}
			}
		}
		tr.Step()
	}
	if got := tr.Stats().Delivered; got != int64(injected) {
		t.Errorf("torus delivered %d of %d", got, injected)
	}
}

func TestTornadoPattern(t *testing.T) {
	p := Tornado{}
	// Node (0,0) on an 8×8 grid targets (3,0).
	if d := p.Dest(0, 64, nil); d != 3 {
		t.Errorf("tornado dest of node 0 = %d, want 3", d)
	}
	for src := 0; src < 64; src++ {
		d := p.Dest(src, 64, nil)
		if d == src || d < 0 || d >= 64 {
			t.Fatalf("tornado produced invalid destination %d for %d", d, src)
		}
		// Tornado stays within the row (except the self-remap).
		if d/8 != src/8 && d != (src+1)%64 {
			t.Errorf("tornado left the row: %d → %d", src, d)
		}
	}
}

func TestNeighborPattern(t *testing.T) {
	p := Neighbor{}
	if d := p.Dest(5, 64, nil); d != 6 {
		t.Errorf("neighbor dest of 5 = %d, want 6", d)
	}
	if d := p.Dest(63, 64, nil); d != 0 {
		t.Errorf("neighbor dest of 63 = %d, want 0 (wrap)", d)
	}
}

func TestTornadoHurtsRingMoreThanUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation sweep is slow")
	}
	cfg := SweepConfig{Seed: 6, WarmupCycles: 800, MeasureCycles: 2500}
	mk := func() Network { return NewRing(16, timing300(1)) }
	cfg.Pattern = Uniform{}
	uni := SaturationRate(mk, cfg)
	cfg.Pattern = Tornado{}
	tor := SaturationRate(mk, cfg)
	if tor > uni {
		t.Errorf("tornado saturation %v should not beat uniform %v on a ring", tor, uni)
	}
}

func TestNewPatternsRegistered(t *testing.T) {
	for _, name := range []string{"tornado", "neighbor"} {
		p, err := PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("pattern %q name mismatch", name)
		}
	}
}
