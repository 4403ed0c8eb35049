package main

import "testing"

func series(base float64, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + step*float64(i%3-1)
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	latency := metricDef{"op_p50_ms", "ms", lower, 0.10}
	rate := metricDef{"work_per_s", "1/s", higher, 0.10}
	cases := []struct {
		name       string
		d          metricDef
		base, head []float64
		want       string
		wins       int
	}{
		{"gain: every pair won, medians apart", latency, series(100, 1, 10), series(80, 1, 10), verdictGain, 10},
		{"gain on a higher-is-better metric", rate, series(100, 1, 10), series(120, 1, 10), verdictGain, 10},
		{"ties win nothing", latency, series(100, 0, 10), series(100, 0, 10), verdictWithin, 0},
		{"nine of ten pairs is enough", latency,
			[]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			[]float64{90, 90, 90, 90, 90, 90, 90, 90, 90, 100}, verdictGain, 9},
		{"eight of ten is not", latency,
			[]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			[]float64{90, 90, 90, 90, 90, 90, 90, 90, 100, 100}, verdictWithin, 8},
		{"medians closer than the base spread", latency,
			[]float64{96, 104, 96, 104, 96, 104, 96, 104, 96, 104},
			[]float64{95, 103, 95, 103, 95, 103, 95, 103, 95, 103}, verdictWithin, 10},
		{"too few pairs for a gain", latency, series(100, 1, 5), series(80, 1, 5), verdictWithin, 5},
		{"regression beyond the bound", latency, series(100, 1, 10), series(120, 1, 10), verdictRegression, 0},
		{"slower within the bound", latency, series(100, 1, 10), series(105, 1, 10), verdictWithin, 0},
		{"throughput drop beyond the bound", rate, series(100, 1, 10), series(85, 1, 10), verdictRegression, 0},
		{"spread wider than the bound", latency,
			[]float64{70, 130, 70, 130, 70, 130, 70, 130, 70, 130},
			[]float64{72, 128, 72, 128, 72, 128, 72, 128, 72, 128}, verdictUnresolved, 5},
		{"wide spread but every head run better", latency,
			[]float64{100, 140, 100, 140},
			[]float64{60, 95, 60, 95}, verdictWithin, 4},
	}
	for _, c := range cases {
		j := judge(c.d, c.base, c.head)
		if j.verdict != c.want || j.wins != c.wins {
			t.Errorf("%s: verdict %q wins %d/%d, want %q wins %d", c.name, j.verdict, j.wins, j.pairs, c.want, c.wins)
		}
	}
}

func TestCompareResultsPairsRunsByPosition(t *testing.T) {
	mk := func(vals ...float64) *Results {
		res := &Results{}
		for _, v := range vals {
			res.Runs = append(res.Runs, map[string]Record{
				"sim-long": {Metrics: map[string]Metric{"op_p50_ms": {Value: v}}},
			})
		}
		return res
	}
	rows := compareResults(mk(10, 10, 10), mk(13, 13, 13))
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1 (only the metric both files carry)", len(rows))
	}
	if r := rows[0]; r.workload != "sim-long" || r.pairs != 3 || r.verdict != verdictRegression {
		t.Errorf("row %+v", r)
	}
}
