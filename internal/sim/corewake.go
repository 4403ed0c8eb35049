package sim

import (
	"math"
	"math/bits"
)

// The core phase of Step is event-driven. A core that only commits
// costs nothing between its events, because its committed count needs
// no per-cycle addition: every core starts at 0 and, on each cycle it
// is not stalled, adds the same unstalled rate (unstalledRate is one
// constant per System). After n commit cycles its count is therefore
// the n-fold float64 sum of that rate, which commitTable holds, filled
// by the same additions the per-cycle loop made, so every read is bit
// for bit what that loop would have produced.
//
// Each core is in one of three modes, kept up to date by resync:
//
//   - running: it commits every cycle. It keeps the tick it started
//     running, so its count is n + ticks − since, and a wake in
//     System.wakes at the cycle its count first reaches nextEvent.
//   - stalled: a blocking miss or a full MLP window holds commit; its
//     count n is fixed. Its bit in stalledDue is set while that count
//     is at or past its threshold (a miss mlpCap held back), so
//     coreEvents runs on it every cycle, exactly as the per-cycle loop
//     did.
//   - barrier: it waits at a barrier; Step only counts it.
//
// Each core's cycles go to one CPI-stack bucket: base while running,
// sync at a barrier and, while stalled, the phase of the transaction it
// waits on (stallBucket). System.charged counts the cores per bucket,
// and Step adds each count to its bucket once per measured cycle. Every
// bucket is a sum of whole numbers below 2^53, exact in float64, so the
// stack is bit-equal to charging core by core. Step visits no core that
// has no event due.
//
// A core's mode, stalledDue bit and wake change only in resync, which
// runs at the end of coreEvents, at the end of completeTxn (for every
// core after a barrier release) and once per core in New. Those are
// also the only places a core's thresholds change: TryInject never
// delivers, so inside coreEvents(i) only core i changes. A stalled
// core's bucket follows its blocking or oldest transaction, whose
// phase also changes between resyncs: injectLeg and advanceLeg re-read
// it (rebucket) whenever they move a phase.

// coreMode is a core's mode as of its last resync.
type coreMode uint8

const (
	modeUnsynced coreMode = iota // New has not synced the core yet
	modeRunning
	modeStalled
	modeBarrier
)

// commitChunk is how many entries the commit table grows by once the
// run passes its planned length. A core whose threshold lies past the
// table's end wakes at the end to re-check, so a longer chunk only
// makes those re-checks rarer.
const commitChunk = 1024

// commitReserve caps the entries New reserves for the table (512 KB),
// which covers the default and quick run lengths. A longer run's table
// grows as the run reaches its end.
const commitReserve = 1 << 16

// commitTable holds sums[n], the n-fold float64 sum of rate: the
// committed count of a core after n commit cycles.
type commitTable struct {
	rate float64
	sums []float64
}

// newCommitTable returns the table for a run of planned entries (one
// per core phase plus the start), holding its first chunk, in buf's
// storage when buf can hold the reservation. planned comes from the
// caller's cycle counts, which may be far larger than memory, so at
// most commitReserve entries are reserved up front.
func newCommitTable(rate float64, planned int, buf []float64) commitTable {
	size := commitReserve
	if planned > 0 { // not an overflowed sum
		size = min(planned, size)
	}
	if cap(buf) < size {
		buf = make([]float64, 0, size)
	}
	t := commitTable{rate: rate, sums: append(buf[:0], 0)}
	t.extend(planned)
	return t
}

// extend fills the next chunk of the table: up to planned entries while
// the run is within its length, commitChunk more after that (Step past
// the run length, as the cycle-loop benchmark does). Within the run its
// storage doubles but never past planned, so a finished run's table
// has exactly planned entries of capacity.
func (t *commitTable) extend(planned int) {
	l := len(t.sums)
	n := l + commitChunk
	if l < planned && n > planned {
		n = planned
	}
	if c := cap(t.sums); n > c && n <= planned {
		grown := make([]float64, l, min(max(2*c, n), planned))
		copy(grown, t.sums)
		t.sums = grown
	}
	for len(t.sums) < n {
		t.sums = append(t.sums, t.sums[len(t.sums)-1]+t.rate)
	}
}

// wakeAfter returns the first k ≥ 1 with sums[n+k] >= e: the commit
// cycles that take a running core from n commits to its next-event
// threshold e. A threshold the table does not reach gets a re-check
// at the table's end (an early wake is harmless: coreEvents below every
// threshold only re-arms), never a longer table. ok is false when e is
// +Inf, which no count reaches.
func (t *commitTable) wakeAfter(n int, e float64) (k int, ok bool) {
	s := t.sums
	last := len(s) - 1
	if !(e <= s[last]) {
		if math.IsInf(e, 1) {
			return 0, false
		}
		return max(1, last-n), true
	}
	if n >= last {
		return 1, true // sums[n+1] ≥ sums[n] ≥ e
	}
	// Guess from the rate, then step to the exact first crossing; the
	// guess is off by at most a step or two of rounding.
	j := last
	if g := (e - s[n]) / t.rate; g < float64(last-n) {
		j = n + 1
		if g > 1 {
			j = n + int(math.Ceil(g))
		}
	}
	for j > n+1 && s[j-1] >= e {
		j--
	}
	for s[j] < e {
		j++
	}
	return j - n, true
}

// wake is a running core's scheduled event check: Step runs its
// coreEvents in cycle at unless the core has re-synced since (gen).
type wake struct {
	at   int64
	core int32
	gen  uint32
}

// wakeHeap is a binary min-heap of wakes keyed by cycle (not
// container/heap, whose Push boxes every wake in an interface and so
// allocates in the cycle loop).
type wakeHeap []wake

func (h *wakeHeap) push(w wake) {
	*h = append(*h, w)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *wakeHeap) pop() wake {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < n && q[l].at < q[m].at {
			m = l
		}
		if r := l + 1; r < n && q[r].at < q[m].at {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// liveMode is the mode the core's state puts it in now.
func (c *coreState) liveMode() coreMode {
	switch {
	case c.inBarrier:
		return modeBarrier
	case c.blockedOn != nil || c.outstanding >= c.mlpCap:
		return modeStalled
	default:
		return modeRunning
	}
}

// commitsOf is core c's commit-cycle count as of the current tick.
func (s *System) commitsOf(c *coreState) int {
	if c.mode == modeRunning {
		return c.n + int(s.ticks-c.since)
	}
	return c.n
}

// committed is core c's committed instruction count.
func (s *System) committed(c *coreState) float64 {
	return s.commits.sums[s.commitsOf(c)]
}

// resync brings core i's mode, bucket and charged count, its
// stalledDue bit and its wake in line with its state. rearm says its
// thresholds may have moved, so a running core needs a new wake even if
// its mode did not change.
func (s *System) resync(i int, rearm bool) {
	c := &s.cores[i]
	mode := c.liveMode()
	if mode == c.mode && (!rearm || mode != modeRunning) {
		if mode == modeStalled {
			// The transaction it waits on, and with rearm its
			// thresholds, may have changed.
			s.rebucket(c)
			s.flagDue(i, c)
		}
		return
	}
	c.n = s.commitsOf(c)
	switch c.mode {
	case modeRunning:
		c.gen++ // drops the pending wake
	case modeStalled:
		s.stalledDue[i>>6] &^= 1 << (i & 63)
	}
	if c.mode != modeUnsynced {
		s.charged[c.bucket]--
	}
	c.mode = mode
	switch mode {
	case modeRunning:
		c.bucket = uint8(BucketBase)
		c.since = s.ticks
		// The next core phase runs at tick ticks+1, in cycle ticks.
		if k, ok := s.commits.wakeAfter(c.n, c.nextEvent); ok {
			s.wakes.push(wake{at: s.ticks + int64(k) - 1, core: int32(i), gen: c.gen})
		}
	case modeStalled:
		c.bucket = uint8(stallBucket(c))
		s.flagDue(i, c)
	case modeBarrier:
		c.bucket = uint8(BucketSync)
	}
	s.charged[c.bucket]++
}

// flagDue sets stalled core i's stalledDue bit exactly when its count
// has reached its next-event threshold. A stalled core's count is fixed
// and its threshold moves only before a resync, so the bit holds until
// the next one.
func (s *System) flagDue(i int, c *coreState) {
	bit := uint64(1) << (i & 63)
	if s.commits.sums[c.n] >= c.nextEvent {
		s.stalledDue[i>>6] |= bit
	} else {
		s.stalledDue[i>>6] &^= bit
	}
}

// rebucket moves a stalled core's count to the bucket its state now
// charges; it leaves a core in any other mode alone.
func (s *System) rebucket(c *coreState) {
	if c.mode != modeStalled {
		return
	}
	if b := uint8(stallBucket(c)); b != c.bucket {
		s.charged[c.bucket]--
		s.charged[b]++
		c.bucket = b
	}
}

// tick starts a core phase: every running core commits once more, so
// the table must reach the new tick.
func (s *System) tick() {
	s.ticks++
	if s.ticks >= int64(len(s.commits.sums)) {
		s.commits.extend(s.cfg.WarmupCycles + s.cfg.MeasureCycles + 1)
	}
}

// stepCores is Step's core phase. Running cores commit implicitly, and
// each CPI-stack bucket is charged its count of cores. coreEvents runs,
// in ascending core index (the rng draw order), on every stalled core
// at or past its threshold and every running core whose wake is due.
func (s *System) stepCores() {
	s.tick()
	if s.measuring {
		for b, n := range s.charged {
			s.stackCycl[b] += float64(n)
		}
	}
	for len(s.wakes) > 0 && s.wakes[0].at <= s.now {
		w := s.wakes.pop()
		if s.cores[w.core].gen == w.gen {
			s.due[w.core>>6] |= 1 << (w.core & 63)
		}
	}
	for w, word := range s.due {
		word |= s.stalledDue[w]
		if word == 0 {
			continue
		}
		s.due[w] = 0
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			s.coreEvents(i, &s.cores[i])
		}
	}
}
