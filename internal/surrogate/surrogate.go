// Package surrogate is a deterministic k-nearest-neighbor /
// inverse-distance-weighted interpolator over normalized coordinate
// vectors. The DSE engine fits one from accumulated checkpoint
// journals (each journal line is a simulated design point) and uses
// the predictions to decide which candidates are worth simulating at
// all — the surrogate never replaces a simulation result, it only
// ranks what to simulate next.
//
// Determinism is the package's contract, because the DSE strategies
// built on top of it promise byte-identical resumed runs: Fit sorts
// the samples into one canonical order regardless of how they arrived
// (journal entry order is an accident of scheduling), neighbor
// selection breaks distance ties by that canonical order, and the
// weighted sums always accumulate in it. Two fits over permutations of
// the same sample set therefore return bit-equal predictions.
package surrogate

import (
	"fmt"
	"math"
	"sort"
)

// DefaultK is the neighborhood size when Fit is given k <= 0: enough
// samples to smooth single-point noise, few enough that predictions
// stay local on the coarse mixed-radix grids the DSE searches.
const DefaultK = 4

// Sample is one observed point: a coordinate vector (normalized to
// [0,1] per axis by the caller) and the measured target values at it.
type Sample struct {
	// Coords is the point's position in the normalized design space.
	Coords []float64
	// Values are the measured targets (the DSE fits performance, device
	// watts, cooling-inclusive watts and energy).
	Values []float64
}

// Model is a fitted interpolator. It is immutable after Fit and safe
// for concurrent Predict calls.
type Model struct {
	k       int
	dim     int
	nvals   int
	samples []Sample
}

// Fit builds a model from the samples. k is the neighborhood size
// (<= 0 means DefaultK). Every sample must share one coordinate
// dimension and one value dimension; two samples at identical
// coordinates must carry identical values (the DSE's evaluations are
// pure functions of the point, so a disagreement means the samples
// belong to different searches) — equal duplicates collapse silently.
// The sample slice is copied and canonically sorted, so the fit is
// invariant to input order.
func Fit(samples []Sample, k int) (*Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("surrogate: no samples to fit")
	}
	if k <= 0 {
		k = DefaultK
	}
	dim, nvals := len(samples[0].Coords), len(samples[0].Values)
	if dim == 0 || nvals == 0 {
		return nil, fmt.Errorf("surrogate: samples need at least one coordinate and one value")
	}
	sorted := make([]Sample, 0, len(samples))
	for i, s := range samples {
		if len(s.Coords) != dim || len(s.Values) != nvals {
			return nil, fmt.Errorf("surrogate: sample %d has shape (%d,%d), want (%d,%d)",
				i, len(s.Coords), len(s.Values), dim, nvals)
		}
		for _, c := range append(append([]float64(nil), s.Coords...), s.Values...) {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("surrogate: sample %d has a non-finite entry", i)
			}
		}
		sorted = append(sorted, s)
	}
	// Canonical order: lexicographic by coordinates. This is what makes
	// the fit a pure function of the sample *set* rather than the
	// sample *sequence*.
	sort.Slice(sorted, func(a, b int) bool {
		return lexLess(sorted[a].Coords, sorted[b].Coords)
	})
	out := sorted[:0]
	for _, s := range sorted {
		if n := len(out); n > 0 && coordsEqual(out[n-1].Coords, s.Coords) {
			if !valuesEqual(out[n-1].Values, s.Values) {
				return nil, fmt.Errorf("surrogate: conflicting samples at coordinates %v: values disagree, the samples belong to different searches", s.Coords)
			}
			continue
		}
		out = append(out, s)
	}
	stats.fits.Add(1)
	return &Model{k: k, dim: dim, nvals: nvals, samples: out}, nil
}

// Predict interpolates the target values at coords and reports a
// confidence in [0,1]: 1 at a fitted sample (the prediction is exact),
// falling toward 0 as the query moves away from everything observed.
// The interpolation is inverse-squared-distance weighting over the k
// nearest samples; ties in distance resolve by canonical sample order,
// so the result is deterministic for any query.
func (m *Model) Predict(coords []float64) ([]float64, float64, error) {
	if len(coords) != m.dim {
		return nil, 0, fmt.Errorf("surrogate: query has %d coordinates, model has %d", len(coords), m.dim)
	}
	stats.predictions.Add(1)
	d2 := make([]float64, len(m.samples))
	for i, s := range m.samples {
		d2[i] = sqDist(coords, s.Coords)
		if d2[i] == 0 {
			// Exact hit: the journal already measured this point.
			return append([]float64(nil), s.Values...), 1, nil
		}
	}
	k := m.k
	if k > len(m.samples) {
		k = len(m.samples)
	}
	nearest := nearestK(d2, k)
	vals := make([]float64, m.nvals)
	wsum := 0.0
	for _, i := range nearest {
		w := 1 / d2[i]
		wsum += w
		for j, v := range m.samples[i].Values {
			vals[j] += w * v
		}
	}
	for j := range vals {
		vals[j] /= wsum
	}
	return vals, m.confidence(math.Sqrt(d2[nearest[0]])), nil
}

// confidence maps the distance to the nearest fitted sample onto
// [0,1). The scale r0 is the expected nearest-neighbor spacing of
// len(samples) points spread over the unit dim-cube, so "one grid step
// away" costs about half the confidence regardless of how dense the
// journal is.
func (m *Model) confidence(dNearest float64) float64 {
	r0 := math.Sqrt(float64(m.dim)) / math.Pow(float64(len(m.samples)), 1/float64(m.dim))
	if r0 <= 0 {
		return 0
	}
	q := dNearest / r0
	return 1 / (1 + q*q)
}

// nearestK returns the indexes of the k smallest distances, ordered by
// (distance, index) — a deterministic partial selection sort; k is
// small, so O(k·n) beats sorting the whole slice.
func nearestK(d2 []float64, k int) []int {
	out := make([]int, 0, k)
	taken := make([]bool, len(d2))
	for len(out) < k {
		best := -1
		for i, d := range d2 {
			if taken[i] {
				continue
			}
			if best < 0 || d < d2[best] {
				best = i
			}
		}
		taken[best] = true
		out = append(out, best)
	}
	return out
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func coordsEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func valuesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
