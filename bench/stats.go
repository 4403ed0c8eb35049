package main

import (
	"math"
	"sort"
)

// Summary describes one metric's samples: the median, the quartiles
// and the samples themselves, so a reader can recompute anything.
type Summary struct {
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// summarize sorts a copy of xs and summarizes it. An empty input gives
// the zero Summary.
func summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := sorted(xs)
	q1, q3 := quartiles(s)
	return Summary{N: len(s), Median: median(s), Q1: q1, Q3: q3, Samples: append([]float64(nil), xs...)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of sorted s.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted s by the method of Python's
// statistics.quantiles(s, n=4) (the default "exclusive" method), so
// spreads computed here and by Python-side tooling agree exactly. A
// single sample is its own quartiles.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// relSpread is the interquartile distance as a share of the median.
func (s Summary) relSpread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// tailPercentiles are the percentiles the tail rule picks from, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least ten of n samples beyond it, counting by nearest rank; ok is
// false when even the median leaves fewer than ten.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-nearestRank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of percentile p among n samples. The
// small allowance keeps binary rounding of p (99.9 is not exact) from
// pushing an exact rank up by one.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[nearestRank(len(s), p)-1]
}

// tail applies the tail rule to xs: the value at the highest
// percentile with ten samples beyond it. With too few samples for any
// such percentile there is no tail to measure, and it is the median
// (pct 50): the slowest of a handful of samples would only measure
// host noise.
func tail(xs []float64) (v, pct float64) {
	if p, ok := tailPercentile(len(xs)); ok {
		return percentile(xs, p), p
	}
	return median(sorted(xs)), 50
}
