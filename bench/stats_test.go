package main

import "testing"

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{7, 1}, -0.5, 4, 8.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 5, 6, 5, 5}, 5, 5, 5.5},
		{[]float64{42}, 42, 42, 42},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = n %d [%g %g %g], want [%g %g %g]", c.xs, s.N, s.Q1, s.Median, s.Q3, c.q1, c.med, c.q3)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestSummarizeKeepsSampleOrder(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := summarize(xs)
	if s.Samples[0] != 3 || xs[0] != 3 {
		t.Errorf("samples reordered: %v (input now %v)", s.Samples, xs)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n   int
		pct float64
		ok  bool
	}{
		{10000, 99.9, true}, // 10 beyond p99.9
		{9999, 99, true},    // p99.9 would leave 9
		{4500, 99, true},    // 45 beyond
		{1800, 99, true},    // 18 beyond
		{1000, 99, true},    // exactly 10 beyond
		{999, 90, true},
		{100, 90, true},
		{20, 50, true},
		{19, 0, false},
		{3, 0, false},
	}
	for _, c := range cases {
		pct, ok := tailPercentile(c.n)
		if pct != c.pct || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, pct, ok, c.pct, c.ok)
		}
		if ok && c.n-nearestRank(c.n, pct) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, pct, c.n-nearestRank(c.n, pct))
		}
	}
}

func TestTailFallsBackToMedian(t *testing.T) {
	if v, pct := tail([]float64{3, 9, 4}); v != 4 || pct != 50 {
		t.Errorf("tail of 3 samples = %g at p%g, want the median 4 at p50", v, pct)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 990 || pct != 99 {
		t.Errorf("tail of 1..1000 = %g at p%g, want 990 at p99", v, pct)
	}
}
