package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cryowire/internal/workload"
)

// tieRate is 1 + 2^-52: its third sum, 3 + 3·2^-52, lies exactly halfway
// between two float64s, so filling the table exercises round half to
// even.
var tieRate = math.Nextafter(1, 2)

// tableRates is every unstalled commit rate a Factory design runs a
// workload profile at, plus adversarial ones: exact binary fractions,
// 0.1 (whose sums drift from n·0.1) and tieRate.
func tableRates(t *testing.T) []float64 {
	t.Helper()
	f := NewFactory()
	designs := []Design{f.Baseline300(), f.CHPMesh(), f.CryoSPMesh(), f.CHPCryoBus(),
		f.CryoSPCryoBus(), f.SharedBus77(), f.IdealNoC77()}
	var profiles []workload.Profile
	for _, suite := range [][]workload.Profile{workload.Parsec(), workload.Spec2006(), workload.Spec2017(), workload.CloudSuiteProfiles()} {
		profiles = append(profiles, suite...)
	}
	rates := []float64{0.5, 1.25, 0.1, tieRate}
	for _, d := range designs {
		for _, p := range profiles {
			rates = append(rates, (&System{design: d, prof: p}).unstalledRate())
		}
	}
	return rates
}

// roundsTie reports whether a+b is an exact tie between two float64s,
// found with the error-free TwoSum transformation.
func roundsTie(a, b float64) bool {
	s := a + b
	bb := s - a
	err := (a - (s - bb)) + (b - bb)
	return err != 0 && math.Abs(err) == (math.Nextafter(s, math.Inf(1))-s)/2
}

// TestCommitTableIsRepeatedAddition checks that every table entry is
// bit-equal to the same number of repeated additions of the rate, the
// value the per-cycle loop accumulated, and that the table fills only
// to the planned length until the run passes it.
func TestCommitTableIsRepeatedAddition(t *testing.T) {
	const planned = 3*commitChunk + 17
	ties := 0
	for _, rate := range tableRates(t) {
		tab := newCommitTable(rate, planned, nil)
		for len(tab.sums) < planned+commitChunk {
			tab.extend(planned)
			if l := len(tab.sums); l != planned && l != planned+commitChunk && l%commitChunk != 1 {
				t.Fatalf("rate %v: table grew to %d entries", rate, l)
			}
		}
		acc := 0.0
		for n, got := range tab.sums {
			if !sameFloat(got, acc) {
				t.Fatalf("rate %v: sums[%d] = %v, %d additions give %v", rate, n, got, n, acc)
			}
			if rate == tieRate && roundsTie(acc, rate) {
				ties++
			}
			acc += rate
		}
	}
	if ties == 0 {
		t.Error("the tie rate's sums never rounded a tie")
	}
}

// TestCommitTableIgnoresHugePlan checks that a run length far past
// memory, or one whose cycle sum overflows, reserves at most
// commitReserve entries and fills the first chunk: the counts come
// unchecked from API callers, so New must not size an allocation by
// them.
func TestCommitTableIgnoresHugePlan(t *testing.T) {
	for _, planned := range []int{math.MaxInt, 1 << 62, 10_000_000_000, math.MinInt} {
		tab := newCommitTable(0.5, planned, nil)
		if len(tab.sums) != commitChunk+1 || cap(tab.sums) != commitReserve {
			t.Fatalf("planned %d: table has %d entries (capacity %d), want %d (capacity %d)", planned, len(tab.sums), cap(tab.sums), commitChunk+1, commitReserve)
		}
		tab.extend(planned)
		if len(tab.sums) != 2*commitChunk+1 {
			t.Fatalf("planned %d: grew to %d entries, want %d", planned, len(tab.sums), 2*commitChunk+1)
		}
	}
	cfg := testCfg()
	cfg.MeasureCycles = 1 << 62
	newSystem(t, cfg)
}

// TestCommitTableGrowsToLongPlan checks a run longer than
// commitReserve: the table grows as the run reaches its end, ends with
// exactly planned entries of capacity, and stays repeated addition.
func TestCommitTableGrowsToLongPlan(t *testing.T) {
	const planned = 2*commitReserve + 5
	tab := newCommitTable(tieRate, planned, nil)
	for len(tab.sums) < planned {
		tab.extend(planned)
	}
	if len(tab.sums) != planned || cap(tab.sums) != planned {
		t.Fatalf("table has %d entries (capacity %d), want %d", len(tab.sums), cap(tab.sums), planned)
	}
	acc := 0.0
	for n, got := range tab.sums {
		if !sameFloat(got, acc) {
			t.Fatalf("sums[%d] = %v, %d additions give %v", n, got, n, acc)
		}
		acc += tieRate
	}
}

// firstCrossing is the brute-force wake: the first k ≥ 1 with
// sums[n+k] >= e inside the table.
func firstCrossing(sums []float64, n int, e float64) (int, bool) {
	for j := n + 1; j < len(sums); j++ {
		if sums[j] >= e {
			return j - n, true
		}
	}
	return 0, false
}

// TestWakeAfterMatchesFirstCrossing checks the wake search against a
// brute-force scan for thresholds exactly on a table value, one ulp
// either side of one, +Inf, and past the table's end, where the wake is
// a re-check at the end.
func TestWakeAfterMatchesFirstCrossing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rate := range tableRates(t) {
		tab := newCommitTable(rate, 4096, nil)
		last := len(tab.sums) - 1
		for trial := 0; trial < 40; trial++ {
			n := rng.Intn(last + 1)
			on := tab.sums[rng.Intn(last+1)]
			for _, e := range []float64{on, math.Nextafter(on, math.Inf(-1)), math.Nextafter(on, math.Inf(1))} {
				want, crosses := firstCrossing(tab.sums, n, e)
				if !crosses {
					if n != last || e > tab.sums[last] {
						continue // past the end: covered below
					}
					want = 1 // at the end, already past e: the next commit
				}
				if got, ok := tab.wakeAfter(n, e); !ok || got != want {
					t.Fatalf("rate %v n %d threshold %v: wake %d (%v), first crossing %d", rate, n, e, got, ok, want)
				}
			}
			if k, ok := tab.wakeAfter(n, math.Inf(1)); ok {
				t.Fatalf("rate %v n %d: +Inf threshold woke after %d", rate, n, k)
			}
			for _, e := range []float64{math.Nextafter(tab.sums[last], math.Inf(1)), tab.sums[last] + 1e6*rate} {
				k, ok := tab.wakeAfter(n, e)
				if want := max(1, last-n); !ok || k != want {
					t.Fatalf("rate %v n %d threshold %v past the end: wake %d (%v), want a re-check at %d", rate, n, e, k, ok, want)
				}
			}
		}
	}
}

// TestWakeHeapPopsInCycleOrder pushes random wakes and checks they pop
// in nondecreasing cycle order.
func TestWakeHeapPopsInCycleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h wakeHeap
	var want []int64
	for i := 0; i < 500; i++ {
		at := rng.Int63n(300)
		h.push(wake{at: at, core: int32(i)})
		want = append(want, at)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, at := range want {
		if got := h.pop().at; got != at {
			t.Fatalf("pop %d: cycle %d, want %d", i, got, at)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d wakes left", len(h))
	}
}

// TestRunFillsTableToRunLength checks that a run's commit table holds
// one entry per simulated cycle plus the start, no more: the memory the
// event-driven core phase costs.
func TestRunFillsTableToRunLength(t *testing.T) {
	cfg := testCfg()
	s := newSystem(t, cfg)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(s.commits.sums), cfg.WarmupCycles+cfg.MeasureCycles+1; got != want || cap(s.commits.sums) != want {
		t.Fatalf("table has %d entries (capacity %d), want %d", got, cap(s.commits.sums), want)
	}
}
