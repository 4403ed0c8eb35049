package sim

// The event schedule used to be a map[int64][]*injEvent keyed by
// absolute cycle: every Step paid a map lookup (and, on a hit, a map
// delete) before doing any work, and every schedule call paid a map
// access plus the occasional bucket rehash. Step is called once per NoC
// cycle — tens of thousands of times per evaluation, millions per DSE
// sweep — so the map dominated the scheduler's profile. eventWheel
// replaces it with a fixed-size timing wheel: a power-of-two ring of
// event buckets indexed by `cycle & wheelMask`, plus a small overflow
// list for the rare event scheduled a full wheel revolution or more
// ahead (deep fault-injected DRAM backlogs are the only producer of
// such delays).
//
// Ordering contract: drain(now) must return events in exactly the order
// the old map implementation stored them — append order per cycle —
// because event order feeds the simulator's rng draws and the outputs
// are pinned byte-identical. Two facts make this cheap:
//
//   - A bucket never mixes cycles. An event lands in bucket at&wheelMask
//     only when it is less than wheelSize cycles away, and buckets are
//     drained every revolution, so at drain time every event in the
//     bucket is due exactly now.
//   - Overflow events for a cycle always precede bucket events for the
//     same cycle. An overflow event was scheduled ≥ wheelSize cycles
//     early, a bucket event < wheelSize cycles early, so the overflow
//     list's append order extended by the bucket's append order is the
//     global schedule order.

// wheelSize is the ring span in cycles. Healthy service delays (L3,
// banked DRAM, retry backoff) are mostly a few hundred cycles, but the
// DRAM queues of memory-bound SPEC and CloudSuite runs at CLI lengths
// reach 3,305 cycles on the shared bus and 3,562 on the mesh; 4096 keeps
// those and most fault-degraded memory paths on the fast path while
// costing ~100 KB of bucket headers per worker (the wheel is part of
// the scratch a BatchRunner worker reuses from one simulation to the
// next).
const (
	wheelSize = 1 << 12
	wheelMask = wheelSize - 1
)

// farEvent is an overflow entry: an event scheduled at least one full
// wheel revolution ahead.
type farEvent struct {
	at int64
	ev *injEvent
}

// eventWheel is the timing-wheel schedule.
type eventWheel struct {
	buckets [wheelSize][]*injEvent
	far     []farEvent
	// merged is the buffer for the rare drain that combines overflow
	// and bucket events; reused so the slow path allocates only on
	// first use.
	merged []*injEvent
}

// schedule queues ev for the given absolute cycle. The caller must
// schedule strictly in the future (at > now); scheduling in the past
// would alias a bucket that has already been drained this revolution.
func (w *eventWheel) schedule(at, now int64, ev *injEvent) {
	if at-now >= wheelSize {
		w.far = append(w.far, farEvent{at: at, ev: ev})
		return
	}
	i := at & wheelMask
	w.buckets[i] = append(w.buckets[i], ev)
}

// drain returns the events due at now, in schedule order, and removes
// them from the wheel. The returned slice is only valid until the next
// schedule or drain call. The common case — no overflow events pending
// anywhere — is a single indexed load with no map traffic at all.
func (w *eventWheel) drain(now int64) []*injEvent {
	i := now & wheelMask
	b := w.buckets[i]
	if len(b) == 0 && len(w.far) == 0 {
		return nil
	}
	// Reset the bucket before handing it out: nothing can append to this
	// index while the caller iterates, because a new event for this
	// bucket would have to be due either now (schedule is strictly
	// future) or a full revolution ahead (routed to the overflow list).
	w.buckets[i] = b[:0]
	if len(w.far) == 0 {
		return b
	}
	// Slow path: pull due overflow events in front of the bucket.
	out := w.merged[:0]
	keep := w.far[:0]
	for _, fe := range w.far {
		if fe.at == now {
			out = append(out, fe.ev)
		} else {
			keep = append(keep, fe)
		}
	}
	w.far = keep
	if len(out) == 0 {
		return b
	}
	out = append(out, b...)
	w.merged = out
	return out
}

// reset empties the wheel in place for the next simulation, keeping
// the buckets' storage. It clears every stored pointer, live or stale
// past a bucket's length, so the wheel keeps no finished run's events
// reachable.
func (w *eventWheel) reset() {
	for i := range w.buckets {
		b := w.buckets[i]
		clear(b[:cap(b)])
		w.buckets[i] = b[:0]
	}
	clear(w.far[:cap(w.far)])
	w.far = w.far[:0]
	clear(w.merged[:cap(w.merged)])
	w.merged = w.merged[:0]
}

// pending reports whether any event is still queued (test/watchdog
// diagnostics only — it scans the whole ring).
func (w *eventWheel) pending() int {
	n := len(w.far)
	for i := range w.buckets {
		n += len(w.buckets[i])
	}
	return n
}
