package noc

import "math/rand"

// math/rand's generator is an additive lagged Fibonacci source: once its
// 607-word register has been cycled through, its nth output is
// y[n] = y[n−streamLen] + y[n−streamTap] (mod 2⁶⁴).
const (
	streamLen = 607
	streamTap = 273
)

// stream yields rand.NewSource(seed)'s exact output sequence with a draw
// the compiler inlines. It takes the source's first streamLen Uint64s,
// replays them, and then continues the recurrence itself, streamLen
// values at a time in place. It is a rand.Source, so draws through
// rand.New(s) and direct draws consume one sequence, as they would
// from the source itself.
type stream struct {
	buf [streamLen]uint64 // the values y[base], ..., y[base+streamLen−1]
	i   int               // index in buf of the next value
}

func newStream(seed int64) *stream {
	s := new(stream)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source.
func (s *stream) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for k := range s.buf {
		s.buf[k] = src.Uint64()
	}
	s.i = 0
}

// Int63 implements rand.Source.
func (s *stream) Int63() int64 {
	if s.i == streamLen {
		s.refill()
	}
	x := s.buf[s.i]
	s.i++
	return int64(x & (1<<63 - 1))
}

// Float64 is rand.Rand.Float64 over the stream: it draws again while
// the value rounds to 1.
func (s *stream) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// float64Fast is Float64 without its rare cases, so that it inlines to
// a load and a compare. When the register is spent, or its next value
// rounds to 1, it consumes nothing and reports false; the caller then
// calls Float64.
func (s *stream) float64Fast() (float64, bool) {
	if s.i < streamLen {
		if f := float64(int64(s.buf[s.i])&(1<<63-1)) / (1 << 63); f != 1 {
			s.i++
			return f, true
		}
	}
	return 0, false
}

// bernoulli draws a Bernoulli trial at probability r: Float64() < r.
func (s *stream) bernoulli(r float64) bool {
	f, ok := s.float64Fast()
	if !ok {
		f = s.Float64()
	}
	return f < r
}

// unitFloat is the Float64 value of a 63-bit stream value x before the
// resample: float64(x) / 2⁶³, non-decreasing in x.
func unitFloat(x uint64) float64 { return float64(int64(x)) / (1 << 63) }

// firstWhere returns the least x in [0, 2⁶³) for which f holds, or 2⁶³
// when none does; f must be false up to some x and true from there.
func firstWhere(f func(x uint64) bool) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if f(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// roundsToOne is the least 63-bit value whose unitFloat is 1, a value
// Float64 draws again for.
var roundsToOne = firstWhere(func(x uint64) bool { return unitFloat(x) == 1 })

// missFrom returns the least 63-bit value whose draw misses a Bernoulli
// trial at probability r: unitFloat(x) < r exactly when x < missFrom(r).
func missFrom(r float64) uint64 {
	return firstWhere(func(x uint64) bool { return !(unitFloat(x) < r) })
}

// skipMisses consumes the values of up to k Bernoulli draws that miss,
// with miss from missFrom, and returns how many it consumed. It stops
// early at a value that hits or that rounds to 1, and at the end of
// the register; the draw there takes bernoulli, which handles all
// three.
func (s *stream) skipMisses(k int, miss uint64) int {
	i, end := s.i, min(s.i+k, streamLen)
	for i < end {
		if x := s.buf[i] & (1<<63 - 1); x < miss || x >= roundsToOne {
			break
		}
		i++
	}
	k, s.i = i-s.i, i
	return k
}

// refill replaces buf's values with the next streamLen of the sequence:
// y[n+streamLen] = y[n] + y[n+streamLen−streamTap]. The second term
// still lies in the old values for the first streamTap slots and in the
// new ones, already written, after that.
func (s *stream) refill() {
	const lag = streamLen - streamTap
	for j := 0; j < streamTap; j++ {
		s.buf[j] += s.buf[j+lag]
	}
	for j := streamTap; j < streamLen; j++ {
		s.buf[j] += s.buf[j-streamTap]
	}
	s.i = 0
}
