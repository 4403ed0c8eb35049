package noc

import (
	"math/rand"
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
