package sim

import (
	"math/rand"
	"testing"
)

// mapSchedule is the pre-wheel implementation, kept as the test oracle:
// a map keyed by absolute cycle with append-ordered buckets. The wheel
// must reproduce its drain sequences exactly — event order feeds the
// simulator's rng draws, and the outputs are pinned byte-identical.
type mapSchedule struct {
	pend map[int64][]*injEvent
}

func newMapSchedule() *mapSchedule { return &mapSchedule{pend: map[int64][]*injEvent{}} }

func (m *mapSchedule) schedule(at int64, ev *injEvent) {
	m.pend[at] = append(m.pend[at], ev)
}

func (m *mapSchedule) drain(now int64) []*injEvent {
	evs := m.pend[now]
	delete(m.pend, now)
	return evs
}

// TestWheelMatchesMapOracle drives the timing wheel and the old map
// implementation with identical random schedules — including re-sched-
// uling from inside drains (injection retries) and far events beyond a
// full wheel revolution — and requires identical drain sequences at
// every cycle.
func TestWheelMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var w eventWheel
	oracle := newMapSchedule()
	// Distinct events by pointer identity; id only for diagnostics.
	mk := func(id int64) *injEvent { return &injEvent{t: &txn{started: id}} }
	nextID := int64(0)
	horizon := int64(3 * wheelSize)
	for now := int64(0); now < horizon; now++ {
		// Schedule a random batch at random future offsets, a few of them
		// past a full revolution (the overflow list's territory).
		for k := rng.Intn(4); k > 0; k-- {
			off := int64(1 + rng.Intn(2*wheelSize))
			ev := mk(nextID)
			nextID++
			w.schedule(now+off, now, ev)
			oracle.schedule(now+off, ev)
		}
		got := w.drain(now)
		want := oracle.drain(now)
		if len(got) != len(want) {
			t.Fatalf("cycle %d: wheel drained %d events, oracle %d", now, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cycle %d: event %d differs: wheel %v, oracle %v", now, i, got[i].t.started, want[i].t.started)
			}
			// Retry pattern: occasionally re-schedule a drained event for
			// the next cycle, exactly like a TryInject back-pressure retry.
			if rng.Intn(8) == 0 {
				w.schedule(now+1, now, got[i])
				oracle.schedule(now+1, got[i])
			}
		}
	}
	if w.pending() != len(flatten(oracle.pend)) {
		t.Errorf("after horizon: wheel holds %d events, oracle %d", w.pending(), len(flatten(oracle.pend)))
	}
}

func flatten(m map[int64][]*injEvent) []*injEvent {
	var out []*injEvent
	for _, evs := range m {
		out = append(out, evs...)
	}
	return out
}

// TestWheelFarEventsPrecedeBucketEvents pins the ordering contract that
// makes the wheel byte-compatible with the map: overflow events for a
// cycle were scheduled ≥ wheelSize cycles early, bucket events later,
// so the far list drains in front of the bucket.
func TestWheelFarEventsPrecedeBucketEvents(t *testing.T) {
	var w eventWheel
	far := &injEvent{}
	near := &injEvent{}
	at := int64(wheelSize + 7)
	w.schedule(at, 0, far)     // ≥ one revolution out: overflow list
	w.schedule(at, at-1, near) // next cycle: bucket
	got := w.drain(at)
	if len(got) != 2 || got[0] != far || got[1] != near {
		t.Fatalf("drain order = %v, want [far near]", got)
	}
}

// TestStepSteadyStateAllocs asserts the cycle loop's zero-alloc
// contract: after warm-up (pools populated, rings grown), Step performs
// no steady-state allocation beyond rare amortized growth.
func TestStepSteadyStateAllocs(t *testing.T) {
	for _, tc := range stepCases {
		s := benchSystem(t, tc.mk, tc.wl)
		allocs := testing.AllocsPerRun(500, func() { s.Step() })
		if allocs >= 1 {
			t.Errorf("%s: warmed Step allocates %v per cycle, want amortized < 1", tc.name, allocs)
		}
	}
}
