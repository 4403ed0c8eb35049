package surrogate

import (
	"math"
	"math/rand"
	"testing"
)

// grid1D builds samples along one axis with values [f(x), g(x)].
func grid1D(xs []float64, f, g func(float64) float64) []Sample {
	out := make([]Sample, len(xs))
	for i, x := range xs {
		out[i] = Sample{Coords: []float64{x}, Values: []float64{f(x), g(x)}}
	}
	return out
}

func TestExactHitReturnsSampleWithFullConfidence(t *testing.T) {
	m, err := Fit(grid1D([]float64{0, 0.5, 1}, func(x float64) float64 { return 2 * x }, func(x float64) float64 { return 1 - x }), 2)
	if err != nil {
		t.Fatal(err)
	}
	vals, conf, err := m.Predict([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 1 || vals[1] != 0.5 {
		t.Fatalf("exact hit predicted %v, want [1 0.5]", vals)
	}
	if conf != 1 {
		t.Fatalf("exact hit confidence = %v, want 1", conf)
	}
}

func TestInterpolationStaysBetweenNeighbors(t *testing.T) {
	m, err := Fit(grid1D([]float64{0, 1}, func(x float64) float64 { return 10 * x }, func(x float64) float64 { return x }), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		vals, conf, err := m.Predict([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if vals[0] < 0 || vals[0] > 10 {
			t.Fatalf("IDW at %v escaped the neighbor range: %v", x, vals[0])
		}
		if conf <= 0 || conf >= 1 {
			t.Fatalf("off-sample confidence = %v, want in (0,1)", conf)
		}
	}
	// IDW pulls toward the nearer neighbor.
	near0, _, _ := m.Predict([]float64{0.1})
	near1, _, _ := m.Predict([]float64{0.9})
	if !(near0[0] < near1[0]) {
		t.Fatalf("prediction does not track the nearer neighbor: f(0.1)=%v f(0.9)=%v", near0[0], near1[0])
	}
}

func TestConfidenceFallsWithDistance(t *testing.T) {
	m, err := Fit([]Sample{{Coords: []float64{0, 0}, Values: []float64{1}}, {Coords: []float64{0.1, 0}, Values: []float64{2}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.1
	for _, d := range []float64{0.05, 0.2, 0.5, 1.0} {
		_, conf, err := m.Predict([]float64{0, d})
		if err != nil {
			t.Fatal(err)
		}
		if conf >= prev {
			t.Fatalf("confidence not monotone in distance: conf(%v) = %v >= %v", d, conf, prev)
		}
		prev = conf
	}
}

// TestPermutationInvariance is the determinism property test: fits over
// random permutations of one sample set predict bit-identical values
// and confidences at every probe.
func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var samples []Sample
	for i := 0; i < 60; i++ {
		c := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		samples = append(samples, Sample{
			Coords: c,
			Values: []float64{math.Sin(c[0]*3) + c[1], c[2] * c[0]},
		})
	}
	probes := make([][]float64, 20)
	for i := range probes {
		probes[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	ref, err := Fit(samples, 5)
	if err != nil {
		t.Fatal(err)
	}
	type pred struct {
		vals []float64
		conf float64
	}
	refPreds := make([]pred, len(probes))
	for i, p := range probes {
		v, c, err := ref.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		refPreds[i] = pred{v, c}
	}
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]Sample(nil), samples...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		m, err := Fit(shuffled, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range probes {
			v, c, err := m.Predict(p)
			if err != nil {
				t.Fatal(err)
			}
			if c != refPreds[i].conf {
				t.Fatalf("trial %d probe %d: confidence %v != %v", trial, i, c, refPreds[i].conf)
			}
			for j := range v {
				if v[j] != refPreds[i].vals[j] {
					t.Fatalf("trial %d probe %d: value[%d] %v != %v (fit is order-sensitive)", trial, i, j, v[j], refPreds[i].vals[j])
				}
			}
		}
	}
}

func TestFitRejects(t *testing.T) {
	cases := []struct {
		name    string
		samples []Sample
	}{
		{"empty", nil},
		{"zero dim", []Sample{{Coords: nil, Values: []float64{1}}}},
		{"zero values", []Sample{{Coords: []float64{0}, Values: nil}}},
		{"ragged coords", []Sample{{Coords: []float64{0}, Values: []float64{1}}, {Coords: []float64{0, 1}, Values: []float64{1}}}},
		{"ragged values", []Sample{{Coords: []float64{0}, Values: []float64{1}}, {Coords: []float64{1}, Values: []float64{1, 2}}}},
		{"NaN", []Sample{{Coords: []float64{math.NaN()}, Values: []float64{1}}}},
		{"conflicting duplicate", []Sample{
			{Coords: []float64{0.5}, Values: []float64{1}},
			{Coords: []float64{0.5}, Values: []float64{2}},
		}},
	}
	for _, c := range cases {
		if _, err := Fit(c.samples, 0); err == nil {
			t.Errorf("%s: Fit accepted, want error", c.name)
		}
	}
	// Equal duplicates collapse instead of erroring.
	m, err := Fit([]Sample{
		{Coords: []float64{0.5}, Values: []float64{1}},
		{Coords: []float64{0.5}, Values: []float64{1}},
		{Coords: []float64{0.25}, Values: []float64{2}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.samples); n != 2 {
		t.Fatalf("duplicates not collapsed: %d samples, want 2", n)
	}
}

func TestPredictShapeChecked(t *testing.T) {
	m, err := Fit([]Sample{{Coords: []float64{0, 0}, Values: []float64{1}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Predict([]float64{0}); err == nil {
		t.Fatal("wrong-dimension query accepted")
	}
}

func TestStatsCount(t *testing.T) {
	before := ReadStats()
	m, err := Fit([]Sample{{Coords: []float64{0}, Values: []float64{1}}, {Coords: []float64{1}, Values: []float64{2}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Predict([]float64{0.3}); err != nil {
		t.Fatal(err)
	}
	AddSkipped(3)
	AddSkipped(-1) // never decrements
	after := ReadStats()
	if after.Fits != before.Fits+1 {
		t.Errorf("fits %d -> %d, want +1", before.Fits, after.Fits)
	}
	if after.Predictions != before.Predictions+1 {
		t.Errorf("predictions %d -> %d, want +1", before.Predictions, after.Predictions)
	}
	if after.SimsSkipped != before.SimsSkipped+3 {
		t.Errorf("sims skipped %d -> %d, want +3", before.SimsSkipped, after.SimsSkipped)
	}
}
