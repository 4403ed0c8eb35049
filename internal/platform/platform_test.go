package platform

import (
	"math"
	"sync"
	"testing"

	"cryowire/internal/noc"
	"cryowire/internal/phys"
	"cryowire/internal/pipeline"
	"cryowire/internal/wire"
)

// Every repeated lookup must be served from the cache: one miss per
// distinct key, hits for everything after.
func TestMemoizeOnce(t *testing.T) {
	p := New()
	op := p.NominalOp(phys.T77)

	first := p.MeshTiming(op, 1)
	s0 := p.Stats()
	if s0.Misses != 1 || s0.Hits != 0 {
		t.Fatalf("after first MeshTiming: stats = %+v, want 1 miss 0 hits", s0)
	}
	second := p.MeshTiming(op, 1)
	s1 := p.Stats()
	if s1.Misses != 1 || s1.Hits != 1 {
		t.Fatalf("after second MeshTiming: stats = %+v, want 1 miss 1 hit", s1)
	}
	if first != second {
		t.Fatalf("memoized MeshTiming changed: %+v vs %+v", first, second)
	}

	// A different key is a fresh derivation, not a hit.
	p.MeshTiming(op, 3)
	if s := p.Stats(); s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("after distinct key: stats = %+v, want 2 misses 1 hit", s)
	}
}

// Concurrent first access to the same keys must derive each artifact
// exactly once (run under -race via make check).
func TestMemoizeConcurrentFirstAccess(t *testing.T) {
	p := New()
	op77 := p.NominalOp(phys.T77)
	op300 := p.NominalOp(phys.T300)

	const goroutines = 16
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			p.MeshTiming(op77, 1)
			p.MeshTiming(op300, 1)
			p.BusTiming(op77)
			p.Baseline300()
			if err := p.ValidateOp(op77); err != nil {
				t.Errorf("ValidateOp(77K): %v", err)
			}
		}()
	}
	wg.Wait()

	// 5 distinct keys across the tables, hit goroutines*5 - 5 times.
	s := p.Stats()
	if s.Misses != 5 {
		t.Fatalf("concurrent access derived %d artifacts, want 5 (stats %+v)", s.Misses, s)
	}
	if want := uint64(goroutines*5 - 5); s.Hits != want {
		t.Fatalf("hits = %d, want %d (stats %+v)", s.Hits, want, s)
	}
}

// Concurrent core derivations (the expensive superpipeline searches)
// must also collapse to one derivation per column.
func TestCoreDerivationsConcurrent(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.CryoSP().FreqGHz <= p.Baseline300().FreqGHz {
				t.Error("CryoSP is not faster than the 300K baseline")
			}
			p.CHPCore()
			p.Superpipeline77()
			p.SuperpipelineCryoCore77()
		}()
	}
	wg.Wait()
	if s := p.cores.stats(); s.Misses != 5 {
		t.Fatalf("core table derived %d columns, want 5 (stats %+v)", s.Misses, s)
	}
}

func TestFrequencyTarget(t *testing.T) {
	p := New()
	for name, core := range map[string]func() pipeline.CoreSpec{
		"baseline300":             p.Baseline300,
		"superpipeline77":         p.Superpipeline77,
		"superpipelineCryoCore77": p.SuperpipelineCryoCore77,
		"cryoSP":                  p.CryoSP,
		"chpCore":                 p.CHPCore,
	} {
		if f := core().FreqGHz; f <= 0 || math.IsNaN(f) {
			t.Fatalf("%s clock = %v, want positive", name, f)
		}
	}
}

func TestOpAtRejectsUnphysicalTemperatures(t *testing.T) {
	p := New()
	for _, bad := range []float64{0, -40, math.NaN()} {
		if _, err := p.OpAt(bad); err == nil {
			t.Errorf("OpAt(%v) accepted an unphysical temperature", bad)
		}
	}
	op, err := p.OpAt(77)
	if err != nil {
		t.Fatalf("OpAt(77): %v", err)
	}
	if op.T != phys.T77 {
		t.Fatalf("OpAt(77) returned T=%v", op.T)
	}
}

// WireSpeedupByClass must accept all four public classes — including
// the in-core "forwarding" wire — and reject unknown names.
func TestWireSpeedupByClass(t *testing.T) {
	p := New()
	for _, class := range wire.ClassNames() {
		for _, repeated := range []bool{false, true} {
			s, err := p.WireSpeedupByClass(class, 1.0, 77, repeated)
			if err != nil {
				t.Fatalf("WireSpeedupByClass(%q, repeated=%v): %v", class, repeated, err)
			}
			if s <= 1 {
				t.Errorf("WireSpeedupByClass(%q, repeated=%v) = %v, want > 1 at 77K", class, repeated, s)
			}
		}
	}
	if _, err := p.WireSpeedupByClass("quantum", 1.0, 77, false); err == nil {
		t.Fatal("WireSpeedupByClass accepted an unknown class")
	}
	if _, err := p.WireSpeedupByClass("local", 1.0, -1, false); err == nil {
		t.Fatal("WireSpeedupByClass accepted a negative temperature")
	}
}

// The process-wide Default platform is a singleton.
func TestDefaultIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() returned distinct platforms")
	}
}

// Platform-derived NoC timings must agree with the direct derivations
// they memoize.
func TestTimingsMatchDirectDerivation(t *testing.T) {
	p := New()
	op := p.NominalOp(phys.T77)
	if got, want := p.MeshTiming(op, 1), noc.MeshTiming(op, p.MOSFET(), 1); got != want {
		t.Errorf("MeshTiming: platform %+v, direct %+v", got, want)
	}
	if got, want := p.BusTiming(op), noc.BusTiming(op, p.MOSFET()); got != want {
		t.Errorf("BusTiming: platform %+v, direct %+v", got, want)
	}
}
