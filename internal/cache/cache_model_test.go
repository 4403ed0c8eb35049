// Package cache implements set-associative cache arrays with true LRU
// replacement, plus a synthetic address-stream generator. The
// full-system simulator drives its private-cache behaviour from the
// statistical workload profiles (DESIGN.md substitution #4); this
// package closes the loop by showing those profiles are *realizable*:
// for each workload there is a concrete address stream whose measured
// miss rates through real L1/L2 arrays match the profile (see
// CalibrateStream and the tests). No production code imports it, so
// the whole package is test files.
package cache

import (
	"fmt"
	"math/rand"
)

// Config sizes one cache level.
type Config struct {
	Name      string
	SizeKB    int
	Assoc     int
	LineBytes int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.SizeKB <= 0 || c.Assoc <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("cache: non-positive geometry in %+v", c)
	}
	sets := c.SizeKB * 1024 / c.LineBytes / c.Assoc
	if sets == 0 {
		return fmt.Errorf("cache: %s has zero sets", c.Name)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %s set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Cache is one set-associative array with true-LRU replacement.
type Cache struct {
	cfg  Config
	sets [][]line
	// clock drives LRU ordering and survives stat resets.
	clock int64
	// stats
	accesses, misses int64
}

type line struct {
	tag   uint64
	valid bool
	// lru is a per-set timestamp; larger = more recent.
	lru int64
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := cfg.SizeKB * 1024 / cfg.LineBytes / cfg.Assoc
	sets := make([][]line, nSets)
	backing := make([]line, nSets*cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &Cache{cfg: cfg, sets: sets}, nil
}

// Access looks up (and on miss, fills) the line holding addr. It
// returns true on a hit.
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	c.clock++
	lineAddr := addr / uint64(c.cfg.LineBytes)
	set := c.sets[lineAddr%uint64(len(c.sets))]
	tag := lineAddr / uint64(len(c.sets))
	var victim *line
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lru = c.clock
			return true
		}
		if victim == nil || !l.valid || (victim.valid && l.lru < victim.lru) {
			if victim == nil || victim.valid {
				victim = l
			}
		}
	}
	c.misses++
	victim.valid = true
	victim.tag = tag
	victim.lru = c.clock
	return false
}

// ResetStats zeroes the hit/miss counters while keeping the arrays
// warm (for warmup-then-measure methodology).
func (c *Cache) ResetStats() { c.accesses, c.misses = 0, 0 }

// Invalidate drops the line holding addr (coherence action); reports
// whether it was present.
func (c *Cache) Invalidate(addr uint64) bool {
	lineAddr := addr / uint64(c.cfg.LineBytes)
	set := c.sets[lineAddr%uint64(len(c.sets))]
	tag := lineAddr / uint64(len(c.sets))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
			return true
		}
	}
	return false
}

// MissRate returns misses/accesses so far.
// Kept for tests: internal/cache is DESIGN.md substitution #4's realizability check; no production code imports it.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Accesses returns the access count.
// Kept for tests: internal/cache is DESIGN.md substitution #4's realizability check; no production code imports it.
func (c *Cache) Accesses() int64 { return c.accesses }

// Misses returns the miss count.
func (c *Cache) Misses() int64 { return c.misses }

// Hierarchy chains an L1 and L2 (private levels of the target system).
type Hierarchy struct {
	L1, L2 *Cache
	// memory accesses per kilo-instruction drive MPKI conversion
	instructions int64
	l1Misses     int64
	l2Misses     int64
}

// NewHierarchy builds the Table 4 private-cache pair.
func NewHierarchy() (*Hierarchy, error) {
	l1, err := New(Config{Name: "L1D", SizeKB: 32, Assoc: 8, LineBytes: 64})
	if err != nil {
		return nil, err
	}
	l2, err := New(Config{Name: "L2", SizeKB: 256, Assoc: 8, LineBytes: 64})
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1: l1, L2: l2}, nil
}

// Access sends one load/store through L1 then (on miss) L2. Returns
// the level that hit: 1, 2, or 3 (missed both → memory-side).
func (h *Hierarchy) Access(addr uint64) int {
	if h.L1.Access(addr) {
		return 1
	}
	h.l1Misses++
	if h.L2.Access(addr) {
		return 2
	}
	h.l2Misses++
	return 3
}

// Retire accounts committed instructions for MPKI computation.
func (h *Hierarchy) Retire(n int64) { h.instructions += n }

// ResetStats zeroes every counter while keeping the arrays warm.
func (h *Hierarchy) ResetStats() {
	h.L1.ResetStats()
	h.L2.ResetStats()
	h.instructions, h.l1Misses, h.l2Misses = 0, 0, 0
}

// L1MPKI returns L1 misses per kilo-instruction.
func (h *Hierarchy) L1MPKI() float64 {
	if h.instructions == 0 {
		return 0
	}
	return float64(h.l1Misses) / float64(h.instructions) * 1000
}

// L2MPKI returns L2 misses per kilo-instruction.
func (h *Hierarchy) L2MPKI() float64 {
	if h.instructions == 0 {
		return 0
	}
	return float64(h.l2Misses) / float64(h.instructions) * 1000
}

// Stream generates a synthetic memory-reference stream with three
// regions: a hot set that lives in L1, a warm working set that lives in
// L2, and a cold region that misses both — the standard three-knob
// model for hitting target per-level miss rates.
type Stream struct {
	rng *rand.Rand
	// region sizes in lines
	hotLines, warmLines, coldLines int
	// fractions of references to warm/cold regions
	warmFrac, coldFrac float64
	// memory references per kilo-instruction
	RefsPerKI float64
}

// NewStream builds a generator.
func NewStream(seed int64, hotLines, warmLines, coldLines int, warmFrac, coldFrac, refsPerKI float64) *Stream {
	return &Stream{
		rng:      rand.New(rand.NewSource(seed)),
		hotLines: hotLines, warmLines: warmLines, coldLines: coldLines,
		warmFrac: warmFrac, coldFrac: coldFrac, RefsPerKI: refsPerKI,
	}
}

// Next returns the next reference address.
func (s *Stream) Next() uint64 {
	r := s.rng.Float64()
	switch {
	case r < s.coldFrac:
		return 0xC000_0000 + uint64(s.rng.Intn(s.coldLines))*64
	case r < s.coldFrac+s.warmFrac:
		return 0x8000_0000 + uint64(s.rng.Intn(s.warmLines))*64
	default:
		return 0x4000_0000 + uint64(s.rng.Intn(s.hotLines))*64
	}
}

// CalibrationResult reports how closely a stream realizes a profile.
type CalibrationResult struct {
	WantL1MPKI, GotL1MPKI float64
	WantL2MPKI, GotL2MPKI float64
}

// CalibrateStream constructs an address stream for the given target
// MPKIs and measures it through the real hierarchy: the existence proof
// that the simulator's statistical profiles correspond to concrete
// reference streams. Because cold traffic pollutes both arrays (and
// warm traffic pollutes the L1), the region fractions are solved by a
// short fixed-point iteration rather than the naive closed form.
// Kept for tests: internal/cache is DESIGN.md substitution #4's realizability check; no production code imports it.
func CalibrateStream(seed int64, wantL1, wantL2, refsPerKI float64, kiloInstructions int) (CalibrationResult, error) {
	// Initial analytic knobs: cold references miss both levels, warm
	// references miss L1 but hit L2.
	coldFrac := wantL2 / refsPerKI
	warmFrac := (wantL1 - wantL2) / refsPerKI
	if warmFrac < 0 {
		warmFrac = 0
	}
	var res CalibrationResult
	for iter := 0; iter < 4; iter++ {
		h, err := NewHierarchy()
		if err != nil {
			return CalibrationResult{}, err
		}
		st := NewStream(seed, 350 /* ≈22KB hot */, 1400 /* ≈90KB warm */, 1<<20, warmFrac, coldFrac, refsPerKI)
		refs := int(float64(kiloInstructions) * refsPerKI)
		// Warm the arrays so compulsory warm-region misses don't skew
		// the measurement, then measure.
		for i := 0; i < refs/2; i++ {
			h.Access(st.Next())
		}
		h.ResetStats()
		for i := 0; i < refs; i++ {
			h.Access(st.Next())
		}
		h.Retire(int64(kiloInstructions) * 1000)
		res = CalibrationResult{
			WantL1MPKI: wantL1, GotL1MPKI: h.L1MPKI(),
			WantL2MPKI: wantL2, GotL2MPKI: h.L2MPKI(),
		}
		// Feedback: scale each knob by its miss-rate error.
		if res.GotL2MPKI > 0 {
			coldFrac *= clampRatio(wantL2 / res.GotL2MPKI)
		}
		gotWarm := res.GotL1MPKI - res.GotL2MPKI
		wantWarm := wantL1 - wantL2
		if gotWarm > 0 && wantWarm > 0 {
			warmFrac *= clampRatio(wantWarm / gotWarm)
		}
	}
	return res, nil
}

// clampRatio bounds a feedback step to keep the iteration stable.
func clampRatio(r float64) float64 {
	if r < 0.25 {
		return 0.25
	}
	if r > 4 {
		return 4
	}
	return r
}
