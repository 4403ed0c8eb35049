package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"cryowire"
	"cryowire/internal/dse"
	"cryowire/internal/experiments"
	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

// dseMain runs the design-space-exploration engine (`cryowire dse`).
func dseMain(args []string) int {
	fs := flag.NewFlagSet("dse", flag.ExitOnError)
	strategy := fs.String("strategy", dse.StrategyGrid,
		fmt.Sprintf("search strategy (%s)", strings.Join(dse.Strategies(), ", ")))
	budget := fs.Int("budget", 0, "max candidates to evaluate (0 = whole space)")
	seed := fs.Int64("seed", 1, "strategy seed; equal seeds reproduce identical searches")
	quick := fs.Bool("quick", false, "shrunk space and shorter simulations")
	workers := fs.Int("workers", 0, "parallel evaluation fan-out (default: all CPUs)")
	jsonFlag := fs.Bool("json", false, "emit the result as JSON instead of a text report")
	journalPath := fs.String("journal", "", "JSON-lines checkpoint journal; a killed run resumes with -resume")
	resume := fs.Bool("resume", false, "continue an existing -journal instead of refusing to overwrite it")
	temps := fs.String("temps", "", "comma-separated temperatures (K) overriding the default axis")
	modes := fs.String("modes", "", "comma-separated voltage modes overriding the default axis")
	depths := fs.String("depths", "", "comma-separated pipeline depths overriding the default axis")
	nets := fs.String("nets", "", "comma-separated interconnects overriding the default axis")
	workloads := fs.String("workloads", "", "comma-separated workload names overriding the default axis")
	stages := fs.String("stages", "", "comma-separated memory-stage temperatures (K) enabling the multi-stage axis")
	prior := fs.String("prior", "", "comma-separated prior journals the surrogate strategies learn from before proposing")
	screenMargin := fs.Float64("screen-margin", 0, fmt.Sprintf("screen strategy's Pareto-band width in normalized objective units (0 = default %g)", dse.DefaultScreenMargin))
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: cryowire dse [-strategy grid|random|hillclimb|surrogate-hillclimb|ei|screen]
                    [-budget n] [-seed n]
                    [-quick] [-workers n] [-json] [-journal file [-resume]]
                    [-prior journal1.jsonl,journal2.jsonl] [-screen-margin x]
                    [-temps 300,77] [-modes nominal,cryosp] [-depths 14,17]
                    [-nets mesh,cryobus] [-workloads x264,...] [-stages 77,4]

Searches the cryogenic design space — temperature x voltage mode x
pipeline depth x interconnect x workload — and reports the Pareto
frontier over (performance, total watts incl. cooling, energy). With
the same seed a journaled run killed mid-search and resumed with
-resume produces byte-identical output to an uninterrupted run.

-stages adds a sixth axis: the memory-hierarchy stage temperature.
Staged candidates are priced through the multi-stage cooling chain
(cable heat leaks + per-stage Carnot-fraction overheads) instead of
the flat (1+CO) lift; without -stages the search is unchanged and old
journals keep resuming.

The surrogate strategies (surrogate-hillclimb, ei, screen) fit a
deterministic k-NN interpolator over the journals named by -prior (and
the run's own history) and use its predictions to decide what to
simulate. screen simulates only the predicted Pareto band — widen it
with -screen-margin — so every reported frontier point is sim-verified
with a fraction of the grid's simulate calls; predictions never enter
the output. Example:

  cryowire dse -strategy screen -prior journal1.jsonl,journal2.jsonl \
               -screen-margin 0.1
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cryowire dse: unexpected arguments %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *resume && *journalPath == "" {
		fmt.Fprintln(os.Stderr, "cryowire dse: -resume requires -journal")
		return 2
	}
	if *budget < 0 || *workers < 0 {
		fmt.Fprintln(os.Stderr, "cryowire dse: -budget and -workers must be >= 0")
		return 2
	}
	var priors []string
	for _, p := range strings.Split(*prior, ",") {
		if p = strings.TrimSpace(p); p != "" {
			priors = append(priors, p)
		}
	}

	space := cryowire.DefaultDSESpace(*quick)
	if err := overrideSpace(&space, *temps, *modes, *depths, *nets, *workloads); err != nil {
		fmt.Fprintf(os.Stderr, "cryowire dse: %v\n", err)
		return 2
	}
	if *stages != "" {
		var ts []float64
		for _, p := range strings.Split(*stages, ",") {
			if p = strings.TrimSpace(p); p == "" {
				continue
			}
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cryowire dse: -stages: %q is not a number\n", p)
				return 2
			}
			ts = append(ts, v)
		}
		space = space.WithStages(ts)
	}
	simCfg := sim.DefaultConfig()
	if *quick {
		simCfg = experiments.QuickOptions().Sim
	}
	cfg := cryowire.DSEConfig{
		Space:        space,
		Strategy:     *strategy,
		Budget:       *budget,
		Seed:         *seed,
		Sim:          simCfg,
		Workers:      *workers,
		Journal:      *journalPath,
		Resume:       *resume,
		Priors:       priors,
		ScreenMargin: *screenMargin,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "cryowire dse: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := cryowire.RunDSE(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cryowire dse: %v\n", err)
		return 1
	}
	if *jsonFlag {
		b, err := res.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cryowire dse: %v\n", err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	}
	fmt.Print(res.Render())
	return 0
}

// overrideSpace replaces any axis the user supplied. The assembled
// space is checked with the rest of the options by DSEConfig.Validate.
func overrideSpace(s *dse.Space, temps, modes, depths, nets, workloadNames string) error {
	split := func(raw string) []string {
		parts := strings.Split(raw, ",")
		out := parts[:0]
		for _, p := range parts {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	if temps != "" {
		var ts []float64
		for _, p := range split(temps) {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return fmt.Errorf("-temps: %q is not a number", p)
			}
			ts = append(ts, v)
		}
		s.TempsK = ts
	}
	if modes != "" {
		s.Modes = split(modes)
	}
	if depths != "" {
		var ds []int
		for _, p := range split(depths) {
			v, err := strconv.Atoi(p)
			if err != nil {
				return fmt.Errorf("-depths: %q is not an integer", p)
			}
			ds = append(ds, v)
		}
		s.Depths = ds
	}
	if nets != "" {
		s.Nets = split(nets)
	}
	if workloadNames != "" {
		var wls []workload.Profile
		for _, n := range split(workloadNames) {
			w, err := workload.ByName(n)
			if err != nil {
				return err
			}
			wls = append(wls, w)
		}
		*s = dse.NewSpace(s.TempsK, s.Modes, s.Depths, s.Nets, wls)
		return nil
	}
	*s = dse.NewSpace(s.TempsK, s.Modes, s.Depths, s.Nets, s.Workloads)
	return nil
}
