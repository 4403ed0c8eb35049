// Package experiments reproduces every table and figure with data in
// the CryoWire paper. Each runner returns a typed Report that the CLI,
// the benchmarks and EXPERIMENTS.md rendering share. DESIGN.md maps
// experiment IDs to paper sections; EXPERIMENTS.md records model-vs-
// paper numbers.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cryowire/internal/par"
	"cryowire/internal/platform"
	"cryowire/internal/sim"
)

// Report is one reproduced table or figure.
type Report struct {
	ID    string `json:"id"` // "fig5", "table3", ...
	Title string `json:"title"`
	// Notes carry the paper's anchor values and any known deviation.
	Notes  []string   `json:"notes,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// Render returns the report as a fixed-width text table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// JSON returns the report as stable, indented JSON: field order follows
// the struct, rows keep insertion order, so equal reports encode to
// byte-identical documents.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Options tunes the simulation-backed experiments.
type Options struct {
	Sim sim.Config
	// Quick shrinks sweeps for tests and benchmarks.
	Quick bool
	// Platform supplies the shared derivation cache every experiment
	// draws its physics from; nil uses the process-wide default. RunAll
	// and parallel sweeps only pay each derivation once because all
	// runners share this one platform.
	Platform *platform.Platform
	// Workers bounds the fan-out of RunAll and of each experiment's
	// internal design×workload×rate sweeps; 0 or 1 runs everything
	// serially. Every task derives its seed from Sim.Seed and its own
	// grid position, so reports are byte-identical at any worker count.
	Workers int
	// SpecObserver, when non-nil, is called once per simulation the
	// experiments submit (before it runs). Used by the bench harness to
	// record the sweep's workload; it must be safe for concurrent calls
	// when Workers > 1 and must not mutate the spec.
	SpecObserver func(sim.LaneSpec)
	// ctx carries the caller's cancellation signal into every runner's
	// fan-out and every simulation; nil never cancels. Set with
	// WithContext (RunCtx and RunAllCtx do it for you).
	ctx context.Context
	// cache dedups identical simulations across the experiments of one
	// RunAll (figures share grid rows); installed by RunAllCtx.
	cache *sim.ResultCache
}

// runSims executes one experiment's simulation grid through
// sim.BatchRunner and returns results and per-spec *sim.LaneErrors
// index-aligned with specs.
func (o Options) runSims(specs []sim.LaneSpec) ([]sim.Result, []error) {
	if o.SpecObserver != nil {
		for _, sp := range specs {
			o.SpecObserver(sp)
		}
	}
	r := &sim.BatchRunner{Workers: o.Workers, Cache: o.cache}
	return r.RunCtx(o.Context(), specs)
}

// firstErr returns the first non-nil error in grid order — the one a
// serial loop would have stopped on.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// WithContext returns a copy of the options whose experiment runs abort
// with ctx's error once ctx is canceled or its deadline passes.
func (o Options) WithContext(ctx context.Context) Options {
	o.ctx = ctx
	return o
}

// Context returns the options' cancellation context, never nil.
func (o Options) Context() context.Context {
	if o.ctx == nil {
		return context.Background()
	}
	return o.ctx
}

// platform returns the options' platform, defaulting to the shared one.
func (o Options) platform() *platform.Platform {
	if o.Platform != nil {
		return o.Platform
	}
	return platform.Default()
}

// simCfg returns the simulation config with the experiment-level worker
// bound and cancellation context threaded through (an explicit
// Sim.Workers wins).
func (o Options) simCfg() sim.Config {
	cfg := o.Sim
	if cfg.Workers == 0 {
		cfg.Workers = o.Workers
	}
	if o.ctx != nil {
		cfg = cfg.WithContext(o.ctx)
	}
	return cfg
}

// DefaultOptions returns CLI-grade run lengths.
func DefaultOptions() Options {
	return Options{Sim: sim.Config{WarmupCycles: 4000, MeasureCycles: 16000, Seed: 1}}
}

// QuickOptions returns test/bench-grade run lengths.
func QuickOptions() Options {
	return Options{Sim: sim.Config{WarmupCycles: 1200, MeasureCycles: 5000, Seed: 1}, Quick: true}
}

// Runner produces a report.
type Runner func(Options) (*Report, error)

// registry maps experiment IDs to runners.
var registry = map[string]Runner{}

// register installs a runner (called from init functions).
func register(id string, r Runner) {
	registry[id] = r
}

// IDs returns all experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID. Any residual internal panic is
// recovered into an error so the public API never crashes the caller.
func Run(id string, opt Options) (rep *Report, err error) {
	return RunCtx(opt.Context(), id, opt)
}

// RunCtx is Run with cancellation: once ctx is done the experiment's
// internal fan-outs stop handing out tasks, in-flight simulations abort
// between cycles, and ctx's error comes back to the caller.
func RunCtx(ctx context.Context, id string, opt Options) (rep *Report, err error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	if ctx != nil {
		opt = opt.WithContext(ctx)
	}
	if err := opt.Context().Err(); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	defer func() {
		if rec := recover(); rec != nil {
			rep, err = nil, fmt.Errorf("experiments: %s panicked: %v", id, rec)
		}
	}()
	return r(opt)
}

// Outcome is one RunAll result.
type Outcome struct {
	ID     string
	Report *Report
	Err    error
}

// RunAll executes every registered experiment and returns the outcomes
// in sorted-ID order. With opt.Workers > 1 the experiments fan out over
// a bounded pool sharing the options' platform; because each outcome
// lands at its ID's index and every runner seeds from its own grid
// position, the outcomes — and their rendered reports — are
// byte-identical to a serial run.
func RunAll(opt Options) []Outcome {
	return RunAllCtx(opt.Context(), opt)
}

// RunAllCtx is RunAll with cancellation: once ctx is done no further
// experiment starts and every not-yet-finished outcome reports ctx's
// error, so the caller always gets one outcome per registered ID.
func RunAllCtx(ctx context.Context, opt Options) []Outcome {
	if ctx != nil {
		opt = opt.WithContext(ctx)
	}
	if opt.cache == nil {
		// One shared result cache for the whole sweep: experiments share
		// grid rows (Fig 3's baselines reappear in Fig 23, the fault
		// sweep's healthy rows are Fig 23 rows), and the runner dedups
		// them instead of re-simulating.
		opt.cache = sim.NewResultCache()
	}
	ids := IDs()
	out := make([]Outcome, len(ids))
	err := par.ForCtx(opt.Context(), len(ids), opt.Workers, func(i int) {
		rep, err := RunCtx(opt.Context(), ids[i], opt)
		out[i] = Outcome{ID: ids[i], Report: rep, Err: err}
	})
	if err != nil {
		for i := range out {
			if out[i].ID == "" {
				out[i] = Outcome{ID: ids[i], Err: fmt.Errorf("experiments: %s: %w", ids[i], err)}
			}
		}
	}
	return out
}

// f2 formats a float with 2 decimals; f3 with 3.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.1f%%", v*100)
}
