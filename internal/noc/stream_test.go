package noc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// streamSeeds span zero, negative and wide seeds.
var streamSeeds = []int64{0, 1, -1, 7, 1 << 40}

// TestStreamMatchesSource: the stream's raw values equal
// rand.NewSource's over several refills of its register.
func TestStreamMatchesSource(t *testing.T) {
	for _, seed := range streamSeeds {
		s, src := newStream(seed), rand.NewSource(seed)
		for k := 0; k < 4*streamLen+5; k++ {
			if got, want := s.Int63(), src.Int63(); got != want {
				t.Fatalf("seed %d: draw %d is %d, rand.NewSource gives %d", seed, k, got, want)
			}
		}
	}
}

// TestStreamInterleaved: draws made directly, as measureRate makes its
// Bernoulli draw, and draws through rand.New(stream), as Uniform.Dest
// and the burst and data draws make them, consume one sequence, and it
// is rand.Rand's over rand.NewSource. Intn's argument alternates
// between a power of two (one draw, masked) and a non-power (rejection
// sampling).
func TestStreamInterleaved(t *testing.T) {
	for _, seed := range streamSeeds {
		s := newStream(seed)
		rng, ref := rand.New(s), rand.New(rand.NewSource(seed))
		for k := 0; k < 3*streamLen; k++ {
			f, ok := s.float64Fast()
			if !ok {
				f = s.Float64()
			}
			if want := ref.Float64(); f != want {
				t.Fatalf("seed %d step %d: direct draw %v, rand.Rand.Float64 %v", seed, k, f, want)
			}
			n := 255
			if k%2 == 0 {
				n = 64
			}
			if got, want := (Uniform{}).Dest(k%n, n+1, rng), (Uniform{}).Dest(k%n, n+1, ref); got != want {
				t.Fatalf("seed %d step %d: Uniform.Dest %d, over rand.NewSource %d", seed, k, got, want)
			}
			if got, want := rng.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d step %d: rand.New(stream).Float64 %v, rand.Rand %v", seed, k, got, want)
			}
		}
	}
}

// TestStreamFloat64RoundsToOne: a value that rounds to 1 is left to
// Float64, which consumes it and returns the next value's fraction, as
// rand.Rand.Float64 does. No seed reaches such a value in a test's
// time, so the register is set by hand.
func TestStreamFloat64RoundsToOne(t *testing.T) {
	s := newStream(1)
	s.buf[0], s.buf[1] = 1<<63-1, 1<<62
	if f, ok := s.float64Fast(); ok || s.i != 0 {
		t.Fatalf("float64Fast took a value that rounds to 1: %v, %v, index %d", f, ok, s.i)
	}
	if f := s.Float64(); f != 0.5 || s.i != 2 {
		t.Fatalf("Float64 returned %v at index %d, want 0.5 at index 2", f, s.i)
	}
	s.i = streamLen
	if _, ok := s.float64Fast(); ok || s.i != streamLen {
		t.Fatalf("float64Fast drew from a spent register")
	}
}

// TestSkipMissesMatchesDraws: a row of Bernoulli draws taken as
// skipMisses plus bernoulli, the way measureRate takes a cycle's draws,
// hits at the same draws as one rand.Rand Float64 per draw, and leaves
// the stream where rand.NewSource is after the same draws. Rows run
// past several refills, at rates from rare to certain, and a register
// set by hand puts values that round to 1 on both sides of a miss.
func TestSkipMissesMatchesDraws(t *testing.T) {
	if unitFloat(roundsToOne) != 1 || unitFloat(roundsToOne-1) == 1 {
		t.Fatalf("roundsToOne %d is not the first value that rounds to 1", roundsToOne)
	}
	const row = 256
	check := func(name string, s *stream, ref *rand.Rand, rate float64, rows int) {
		t.Helper()
		miss := missFrom(rate)
		for r := 0; r < rows; r++ {
			var got, want []int
			for k := 0; k < row; k++ {
				if ref.Float64() < rate {
					want = append(want, k)
				}
			}
			for k := 0; k < row; k++ {
				if k += s.skipMisses(row-k, miss); k == row {
					break
				}
				if s.bernoulli(rate) {
					got = append(got, k)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s rate %g row %d: hits at %v, Float64 draws hit at %v", name, rate, r, got, want)
			}
		}
		if a, b := s.Int63(), ref.Int63(); a != b {
			t.Fatalf("%s rate %g: next value %d, rand.NewSource gives %d", name, rate, a, b)
		}
	}
	for _, seed := range streamSeeds {
		for _, rate := range []float64{0, 1e-4, 0.0005 * 1.35, 0.05, 0.5, 1, 2} {
			check(fmt.Sprint("seed ", seed), newStream(seed), rand.New(rand.NewSource(seed)), rate, 12)
		}
	}
	// Values that round to 1 are drawn again, on either path.
	s := newStream(3)
	for k := range s.buf {
		if k%5 == 1 || k%5 == 2 {
			s.buf[k] = roundsToOne + uint64(k)
		}
	}
	ref := *s
	check("hand-set", s, rand.New(&ref), 0.5, 3)
}
