package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of a comparison.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within bound"
)

// minPairs is the fewest pairs on which a gain may be claimed.
const minPairs = 10

// judgement is the comparison of one metric on one workload.
type judgement struct {
	base, head Summary
	wins       int
	pairs      int
	verdict    string
}

// better reports whether a beats b in the metric's direction; a tie
// beats nothing.
func better(d metricDef, a, b float64) bool {
	if d.Better == higher {
		return a > b
	}
	return a < b
}

// judge compares a metric's per-run values, base[i] paired with
// head[i]. A gain needs at least minPairs pairs, head winning nine
// tenths of them, and the medians further apart than the base runs'
// interquartile distance. A regression is a head median worse than the
// base median by more than the bound. Otherwise the result is
// unresolved when either side's spread is wider than the bound, unless
// every head run beats every base run, and within the bound when not.
func judge(d metricDef, base, head []float64) judgement {
	j := judgement{base: summarize(base), head: summarize(head), pairs: min(len(base), len(head))}
	for i := 0; i < j.pairs; i++ {
		if better(d, head[i], base[i]) {
			j.wins++
		}
	}
	bm, hm := j.base.Median, j.head.Median
	switch {
	case j.pairs >= minPairs && 10*j.wins >= 9*j.pairs && better(d, hm, bm) &&
		math.Abs(hm-bm) > j.base.Q3-j.base.Q1:
		j.verdict = verdictGain
	case worsening(d, bm, hm) > d.Bound:
		j.verdict = verdictRegression
	case math.Max(j.base.relSpread(), j.head.relSpread()) > d.Bound && !allBetter(d, head, base):
		j.verdict = verdictUnresolved
	default:
		j.verdict = verdictWithin
	}
	return j
}

// worsening is how much worse head is than base, as a share of base;
// negative when head is better.
func worsening(d metricDef, base, head float64) float64 {
	if base == 0 {
		return 0
	}
	w := (head - base) / math.Abs(base)
	if d.Better == higher {
		return -w
	}
	return w
}

// allBetter reports whether every head value beats every base value.
func allBetter(d metricDef, head, base []float64) bool {
	if len(head) == 0 || len(base) == 0 {
		return false
	}
	for _, h := range head {
		for _, b := range base {
			if !better(d, h, b) {
				return false
			}
		}
	}
	return true
}

// compareRow is one printed line of compare.
type compareRow struct {
	workload string
	metric   metricDef
	judgement
}

// compareResults judges every end-to-end metric of every workload both
// files ran.
func compareResults(base, head *Results) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		for _, d := range endToEnd {
			b, h := runValues(base, w.name, d.Name), runValues(head, w.name, d.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			rows = append(rows, compareRow{w.name, d, judge(d, b, h)})
		}
	}
	return rows
}

// runValues collects one metric's value from every run of a workload.
func runValues(res *Results, workload, metric string) []float64 {
	var out []float64
	for _, run := range res.Runs {
		if m, ok := run[workload].Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func compareCmd(args []string) error {
	if len(args) != 2 {
		return usageError{fmt.Errorf("usage: compare base.json head.json")}
	}
	base, err := readResults(args[0])
	if err != nil {
		return err
	}
	head, err := readResults(args[1])
	if err != nil {
		return err
	}
	if base.Seed != head.Seed || base.Seconds != head.Seconds {
		return fmt.Errorf("the files differ in seed or run length (%d/%gs vs %d/%gs)", base.Seed, base.Seconds, head.Seed, head.Seconds)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\thead median [q1, q3]\tchange\twins/pairs\tbound\tverdict")
	for _, r := range compareResults(base, head) {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%.0f%%\t%s\n",
			r.workload, r.metric.Name, r.metric.Unit,
			r.base.Median, r.base.Q1, r.base.Q3, r.head.Median, r.head.Q1, r.head.Q3,
			100*(r.head.Median-r.base.Median)/r.base.Median, r.wins, r.pairs, 100*r.metric.Bound, r.verdict)
	}
	return tw.Flush()
}
