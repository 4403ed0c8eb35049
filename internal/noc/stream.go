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
