package platform

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"cryowire/internal/phys"
	"cryowire/internal/pipeline"
	"cryowire/internal/wire"
)

// Concurrent core derivations (the superpipeline searches) must agree
// with serial ones: a shared Platform holds no state a derivation could
// race on (run under -race via make check).
func TestCoreDerivationsConcurrent(t *testing.T) {
	p := New()
	columns := []func() pipeline.CoreSpec{
		p.Baseline300, p.Superpipeline77, p.SuperpipelineCryoCore77, p.CryoSP, p.CHPCore,
	}
	want := make([]pipeline.CoreSpec, len(columns))
	for i, col := range columns {
		want[i] = col()
	}
	if want[3].FreqGHz <= want[0].FreqGHz {
		t.Fatal("CryoSP is not faster than the 300K baseline")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, col := range columns {
				if got := col(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("column %d: concurrent derivation %+v, serial %+v", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// A Platform keeps nothing per query: the HTTP server answers arbitrary
// lengths on the process-wide platform, so 20,000 distinct wire
// queries must leave no more than noise on the heap.
func TestDistinctQueriesRetainNoHeap(t *testing.T) {
	p := New()
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for i := 0; i < 20000; i++ {
		if _, err := p.WireSpeedupByClass("global", 0.5+float64(i)*1e-4, 77, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	retained := heap() - before
	runtime.KeepAlive(p)
	if retained > 1<<20 {
		t.Fatalf("20,000 distinct queries retained %.2f MB of heap, want < 1 MB", float64(retained)/(1<<20))
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
