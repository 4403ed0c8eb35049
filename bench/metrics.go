package main

import (
	"fmt"
	"math"
	"strings"

	"cryowire/internal/dse"
	"cryowire/internal/experiments"
)

// metricDef is one row of the benchmark's metric table; BENCHMARK.json
// lists the same rows (a test keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics every untraced run reports, whatever its
// workload. What counts as one operation and one unit of work is the
// workload's (see each workload's doc comment).
//
// The bounds are set by the reference host, not by what a change may
// cost: other tenants slow it by 10–70 % for minutes at a time, so runs
// of the same code spread up to 20 % between quartiles, serve-mixed's
// tail up to 31 % (README.md has the figures), and a bound must stay
// above the spread for the benchmark to tell a change from noise. 25 % is the largest bound
// BENCHMARK.json allows.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.20},
	{"op_p50_ms", "ms", lower, 0.25},
	// The highest percentile with ten operations beyond it; runs of
	// fewer than twenty operations have no tail and report the median.
	{"op_tail_ms", "ms", lower, 0.25},
	{"work_per_s", "1/s", higher, 0.25},
}

// evalSlugs name the five sim.Factory.Evaluation designs, in order, in
// metric names.
var evalSlugs = []string{"baseline300_mesh", "chp_mesh", "cryosp_mesh", "chp_cryobus", "cryosp_cryobus"}

// nocProbes are the four networks the NoC layer probes time: the two
// 256-node networks of fig26 and the 64-node mesh and CryoBus of fig21.
var nocProbes = []string{"mesh256", "hybrid256", "mesh64", "cryobus64"}

// perLayer are the metrics a traced run reports: the layer-by-layer
// ledger. The README's per-layer table says which end-to-end metric
// each should move, and on which workload.
func perLayer() []metricDef {
	defs := []metricDef{
		{"trace_overhead_frac", "frac", lower, 0},
		{"platform.cold_derive_s", "s", lower, 0},
		{"platform.hits_per_pass", "count", higher, 0},
		{"platform.misses_per_pass", "count", lower, 0},
		{"platform.hits_per_search", "count", higher, 0},
		{"platform.misses_per_search", "count", lower, 0},
		{"circuit.delay50_us", "us", lower, 0},
	}
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s", lower, 0})
	}
	for _, n := range nocProbes {
		defs = append(defs, metricDef{"noc.saturation_s." + n, "s", lower, 0})
	}
	for _, n := range nocProbes {
		defs = append(defs, metricDef{"noc.ns_per_cycle." + n, "ns", lower, 0})
	}
	defs = append(defs,
		metricDef{"sim.grid_specs", "count", lower, 0},
		metricDef{"sim.grid_unique", "count", lower, 0},
		metricDef{"sim.dedup_hit_ratio", "ratio", higher, 0},
		metricDef{"sim.grid_perrun_s", "s", lower, 0},
		metricDef{"sim.grid_dedup_s", "s", lower, 0},
		metricDef{"sim.grid_lockstep_s", "s", lower, 0},
	)
	for _, d := range evalSlugs {
		defs = append(defs, metricDef{"sim.ns_per_cycle." + d, "ns", lower, 0})
	}
	defs = append(defs,
		metricDef{"sim.ns_per_txn", "ns", lower, 0},
		metricDef{"sim.solo_pass_s", "s", lower, 0},
		metricDef{"sim.batched_pass_s", "s", lower, 0},
		metricDef{"sim.batches", "count", lower, 0},
		metricDef{"sim.lanes_per_batch", "count", higher, 0},
	)
	for _, d := range evalSlugs {
		defs = append(defs,
			metricDef{"sim.ipc." + d, "ipc", higher, 0},
			metricDef{"sim.noc_share." + d, "frac", lower, 0},
			metricDef{"sim.avg_noc_latency." + d, "cycles", lower, 0},
		)
	}
	defs = append(defs,
		metricDef{"fidelity.fig3_noc_share_avg", "frac", higher, 0},
		metricDef{"fidelity.fig23_speedup_vs_300k", "x", higher, 0},
		metricDef{"dse.batch_s", "s", lower, 0},
		metricDef{"dse.journal_overhead_s", "s", lower, 0},
		metricDef{"dse.replay_s", "s", lower, 0},
		metricDef{"dse.frontier_size", "count", higher, 0},
	)
	for _, st := range dse.Strategies() {
		defs = append(defs, metricDef{"dse.sims_to_frontier." + st, "count", lower, 0})
	}
	defs = append(defs,
		metricDef{"dse.strategies_missing_frontier", "count", lower, 0},
		metricDef{"server.hot_ms", "ms", lower, 0},
		metricDef{"server.wire_miss_ms", "ms", lower, 0},
		metricDef{"server.sim_miss_ms", "ms", lower, 0},
		metricDef{"server.rejected", "count", lower, 0},
		metricDef{"loadgen.late_p99_ms", "ms", lower, 0},
	)
	return defs
}

// Metric is one reported value with the samples behind it.
type Metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Note says how Value was taken from the samples when that is not
	// the median, e.g. "p99".
	Note string `json:"note,omitempty"`
	Summary
}

// Record is everything one workload run reports.
type Record struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
}

// table returns the metric rows a run of the given kind must report.
func table(traced bool) []metricDef {
	if traced {
		return perLayer()
	}
	return endToEnd
}

func defOf(name string) (metricDef, bool) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// checkComplete reports the table rows missing from rec, and any value
// that JSON cannot carry.
func checkComplete(rec Record, defs []metricDef) error {
	var missing []string
	for _, d := range defs {
		m, ok := rec.Metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}
