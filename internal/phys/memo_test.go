package phys

import (
	"math"
	"sync"
	"testing"
)

// resetBGMemo empties the process-wide Bloch–Grüneisen memo before and
// after the calling test, so its counts do not depend on which tests
// ran first.
func resetBGMemo(t *testing.T) {
	t.Helper()
	empty := func() {
		bgMemo.mu.Lock()
		clear(bgMemo.g)
		bgMemo.mu.Unlock()
	}
	empty()
	t.Cleanup(empty)
}

func bgMemoLen() int {
	bgMemo.mu.Lock()
	defer bgMemo.mu.Unlock()
	return len(bgMemo.g)
}

// directFactor is PhononResistivityFactor without the memo.
func directFactor(t Kelvin) float64 {
	return blochGruneisen(t) / blochGruneisen(T300)
}

func checkExact(t *testing.T, temp Kelvin) {
	t.Helper()
	got, want := PhononResistivityFactor(temp), directFactor(temp)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("PhononResistivityFactor(%v) = %v (bits %#x), direct integral %v (bits %#x)",
			temp, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

var memoTemps = []Kelvin{T300, 150, T135, T100, T77, T4, 293.15, 88.8, 4.2, 1e-3}

func TestBGMemoExactBits(t *testing.T) {
	resetBGMemo(t)
	for pass := 0; pass < 3; pass++ {
		for _, temp := range memoTemps {
			checkExact(t, temp)
		}
	}
}

func TestBGMemoIntegratesOncePerTemperature(t *testing.T) {
	resetBGMemo(t)
	before := bgIntegrals.Load()
	for pass := 0; pass < 5; pass++ {
		for _, temp := range memoTemps {
			PhononResistivityFactor(temp)
		}
	}
	if n := bgIntegrals.Load() - before; n != int64(len(memoTemps)) {
		t.Errorf("%d integrals for %d distinct temperatures over 5 passes, want one each", n, len(memoTemps))
	}
	if n := bgMemoLen(); n != len(memoTemps) {
		t.Errorf("memo holds %d temperatures, want %d", n, len(memoTemps))
	}
}

func TestBGMemoSkipsNaNAndNonPositive(t *testing.T) {
	resetBGMemo(t)
	PhononResistivityFactor(T300) // the denominator is stored: one entry
	for _, temp := range []Kelvin{Kelvin(math.NaN()), 0, Kelvin(math.Copysign(0, -1)), -1, -300, Kelvin(math.Inf(-1))} {
		for i := 0; i < 3; i++ {
			got := PhononResistivityFactor(temp)
			if want := directFactor(temp); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("PhononResistivityFactor(%v) = %v, want %v", temp, got, want)
			}
		}
	}
	if n := bgMemoLen(); n != 1 {
		t.Errorf("memo holds %d temperatures after NaN and t ≤ 0 calls, want 1 (300 K)", n)
	}
}

func TestBGMemoCap(t *testing.T) {
	resetBGMemo(t)
	// 300 K, stored by the first call, plus cap−1 other temperatures.
	for i := 0; i < bgMemoCap-1; i++ {
		PhononResistivityFactor(Kelvin(10 + i))
	}
	if n := bgMemoLen(); n != bgMemoCap {
		t.Fatalf("memo holds %d temperatures, want the cap %d", n, bgMemoCap)
	}
	extra := []Kelvin{500.5, 123.25, 7.5}
	before := bgIntegrals.Load()
	for pass := 0; pass < 2; pass++ {
		for _, temp := range extra {
			checkExact(t, temp)
		}
	}
	if n := bgMemoLen(); n != bgMemoCap {
		t.Errorf("memo grew past its cap to %d", n)
	}
	// Past the cap nothing is stored, so each call integrates its
	// temperature again (300 K is served); checkExact's direct
	// reference adds two more.
	if n, want := bgIntegrals.Load()-before, int64(2*3*len(extra)); n != want {
		t.Errorf("%d integrals for %d uncached calls, want %d", n, 2*len(extra), want)
	}
	// Temperatures stored before the cap filled are still served.
	before = bgIntegrals.Load()
	PhononResistivityFactor(10)
	if n := bgIntegrals.Load() - before; n != 0 {
		t.Errorf("a stored temperature took %d integrals past the cap, want 0", n)
	}
}

func TestBGMemoConcurrentFirstCalls(t *testing.T) {
	resetBGMemo(t)
	want := make([]float64, len(memoTemps))
	for i, temp := range memoTemps {
		want[i] = directFactor(temp)
	}
	const workers = 8
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]float64, len(memoTemps))
			for k := range memoTemps {
				// Start each worker at a different temperature so
				// first calls for one temperature race each other.
				i := (k + w) % len(memoTemps)
				out[i] = PhononResistivityFactor(memoTemps[i])
			}
			got[w] = out
		}(w)
	}
	wg.Wait()
	for w, out := range got {
		for i, v := range out {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Errorf("worker %d: PhononResistivityFactor(%v) = %v, want %v", w, memoTemps[i], v, want[i])
			}
		}
	}
	if n := bgMemoLen(); n != len(memoTemps) {
		t.Errorf("memo holds %d temperatures, want %d", n, len(memoTemps))
	}
}
