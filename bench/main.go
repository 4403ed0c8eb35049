// Command cryowire-bench is the repository's benchmark: four workloads
// that each stress different layers of the model stack, timed from
// outside through the layers' public functions. See README.md for the
// workloads, the metrics and how to compare two commits.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench/run.sh run [-all | -workload <name>] [-seed n] [-seconds s] [-trace spans.json] [-out results.json] [-append]
//	bench/run.sh compare base.json head.json
//
// The first form runs one workload and prints `name value unit` lines,
// then one JSON line: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run measures the per-layer ledger instead. Either way it first
// checks that BENCHMARK.json lists the workloads and metrics this
// program measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// workloads in report order.
var workloads = []*workload{registryQuick, simLong, dseFull, serveMixed}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// buildDir is where the benchmark keeps what it leaves behind.
func buildDir() string {
	if d := os.Getenv("BENCH_BUILD_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "run":
		err = runCmd(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = compareCmd(args[1:])
	default:
		os.Exit(runOne(args))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

type usageError struct{ error }

// runOne runs one workload and prints its record; it returns the exit
// code: 0 when every check passed, 1 when a check failed or the run
// could not finish (then no result line is printed), 2 on bad usage.
func runOne(args []string) int {
	fs := flag.NewFlagSet("cryowire-bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	secs := fs.Float64("seconds", defaultSeconds, "run length; fixes the pass count")
	trace := fs.Int("trace", 0, "1 measures the per-layer ledger instead of the end-to-end metrics")
	out := fs.String("out", "", "also write the full run record, samples included, to this JSON file")
	spans := fs.String("spans", "", "with --trace 1: write the spans here (default <build dir>/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && (*trace != 0 && *trace != 1 || *secs <= 0) {
		err = fmt.Errorf("bad flags: --trace must be 0 or 1, --seconds positive")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if err := checkDefinition(definitionFile); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	traced := *trace == 1
	r := newRunner(w.name, *seed, *secs, traced)
	if traced {
		err = r.ledger(w)
	} else {
		err = r.measure(w)
	}
	rec := r.record()
	defs := table(traced)
	if err == nil {
		err = checkComplete(rec, defs)
	}
	if err == nil && *out != "" {
		err = writeJSON(*out, rec)
	}
	if err == nil && traced {
		path := *spans
		if path == "" {
			path = filepath.Join(buildDir(), "spans-"+w.name+".json")
		}
		err = writeSpans(path, r.tr.Spans())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	printLines(rec, defs)
	printResult(rec, defs)
	if !rec.Correct {
		return 1
	}
	return 0
}

// ledger measures the per-layer metrics: the workload's passes
// alternately untraced and traced for trace_overhead_frac, then the
// layer probes of every workload, so every traced run reports the whole
// ledger. Each probe's spans carry the name of the workload it belongs
// to.
func (r *runner) ledger(w *workload) error {
	if err := r.overhead(w); err != nil {
		return fmt.Errorf("trace overhead: %w", err)
	}
	for _, s := range workloads {
		r.tr.tag(s.name)
		if err := s.section(r); err != nil {
			return fmt.Errorf("%s layer probes: %w", s.name, err)
		}
	}
	return nil
}

// printLines prints a `name value unit` line per metric, in table order.
func printLines(rec Record, defs []metricDef) {
	for _, d := range defs {
		if m, ok := rec.Metrics[d.Name]; ok {
			fmt.Printf("%s %v %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

// printResult prints the one-line JSON result: whether every check
// passed, the operations attempted and failed, and each metric's value
// and unit.
func printResult(rec Record, defs []metricDef) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rec.Metrics))
	for _, d := range defs {
		if m, ok := rec.Metrics[d.Name]; ok {
			metrics[d.Name] = value{m.Value, m.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
