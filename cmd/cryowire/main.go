// Command cryowire runs the CryoWire reproduction experiments: every
// table and figure of the paper has an experiment ID (fig5, table3, …).
//
// Usage:
//
//	cryowire list             # show available experiments
//	cryowire fig23            # run one experiment
//	cryowire all              # run everything
//	cryowire -quick fig21     # shrunk sweeps for a fast look
//	cryowire -parallel all    # fan out over all CPUs (same output)
//	cryowire serve -addr :8080  # serve the same reports over HTTP
//	cryowire dse -strategy hillclimb  # search the cryogenic design space
//	cryowire stage -json      # price 300K/77K/4K stage assignments
//	cryowire -version         # print embedded build information
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"

	"cryowire/internal/buildinfo"
	"cryowire/internal/experiments"
	"cryowire/internal/par"
	"cryowire/internal/server"
)

var jsonOut bool

func main() {
	// "serve", "dse" and "stage" have their own flag sets; dispatch
	// before parsing the experiment flags so `cryowire serve -addr
	// :9090` and `cryowire dse -strategy hillclimb` work.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			os.Exit(serveMain(os.Args[2:]))
		case "dse":
			os.Exit(dseMain(os.Args[2:]))
		case "stage":
			os.Exit(stageMain(os.Args[2:]))
		}
	}

	quick := flag.Bool("quick", false, "use shrunk sweeps and shorter simulations")
	version := flag.Bool("version", false, "print build information and exit")
	parallel := flag.Bool("parallel", false, "fan experiments out over all CPUs (output is identical to a serial run)")
	workers := flag.Int("workers", 0, "exact worker count for -parallel (default: all CPUs)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.BoolVar(&jsonOut, "json", false, "emit reports as JSON instead of text tables")
	flag.Usage = usage
	flag.Parse()
	if *version {
		fmt.Printf("cryowire %s (built with %s", buildinfo.Version(), buildinfo.GoVersion())
		if rev := buildinfo.Revision(); rev != "" {
			fmt.Printf(", revision %s", rev)
		}
		fmt.Println(")")
		return
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "cryowire: -workers must be >= 0, got %d\n", *workers)
		usage()
		os.Exit(2)
	}
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	if err := validateProfileFlags(*cpuprofile, *memprofile, false); err != nil {
		fmt.Fprintf(os.Stderr, "cryowire: %v\n", err)
		usage()
		os.Exit(2)
	}
	stopProf, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cryowire: %v\n", err)
		os.Exit(2)
	}
	// Profiles must flush even on failure exits; os.Exit skips defers.
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}
	defer stopProf()
	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	if *parallel {
		opt.Workers = par.DefaultWorkers()
	}
	if *workers > 0 {
		opt.Workers = *workers
	}

	// Ctrl-C cancels the context threaded through every experiment's
	// fan-out and cycle loop, so an interrupted run stops promptly
	// instead of finishing the whole sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	arg := flag.Arg(0)
	switch arg {
	case "list", "all":
		// "all fig5" would silently ignore fig5 (or worse, run it
		// twice) — reject the combination outright.
		if flag.NArg() > 1 {
			fmt.Fprintf(os.Stderr, "cryowire: %q cannot be combined with other experiment IDs (got %v)\n",
				arg, flag.Args()[1:])
			usage()
			exit(2)
		}
	}
	switch arg {
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	case "all":
		// Keep going past failures: one broken experiment should not
		// hide the results of the other thirty. Failures are collected
		// and summarized, and the exit code is non-zero only at the end.
		// RunAll returns outcomes in sorted-ID order regardless of the
		// worker count, so serial and parallel output are byte-identical.
		var failed []string
		for _, oc := range experiments.RunAllCtx(ctx, opt) {
			if oc.Err != nil {
				fmt.Fprintf(os.Stderr, "cryowire: %v\n", oc.Err)
				failed = append(failed, oc.ID)
				continue
			}
			if err := emit(oc.Report); err != nil {
				fmt.Fprintf(os.Stderr, "cryowire: %v\n", err)
				failed = append(failed, oc.ID)
			}
		}
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "cryowire: %d of %d experiments failed: %v\n",
				len(failed), len(experiments.IDs()), failed)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "cryowire: all %d experiments completed\n", len(experiments.IDs()))
		return
	default:
		for _, id := range flag.Args() {
			if err := runOne(ctx, id, opt); err != nil {
				fmt.Fprintf(os.Stderr, "cryowire: %v\n", err)
				exit(1)
			}
		}
	}
}

// validateProfileFlags rejects bad -cpuprofile/-memprofile combinations
// before any work starts: unwritable paths (probed by creating the
// file, exactly as the profiler will), the two profiles aimed at the
// same file, and CPU profiling combined with serve's -pprof endpoint —
// runtime CPU profiling is exclusive, so a /debug/pprof/profile fetch
// would fail mid-serve with the file profiler holding it.
func validateProfileFlags(cpuprofile, memprofile string, pprofEnabled bool) error {
	if cpuprofile != "" && pprofEnabled {
		return fmt.Errorf("-cpuprofile cannot be combined with -pprof (CPU profiling is exclusive; use the /debug/pprof/profile endpoint instead)")
	}
	if cpuprofile != "" && cpuprofile == memprofile {
		return fmt.Errorf("-cpuprofile and -memprofile point at the same file %q", cpuprofile)
	}
	for _, p := range []string{cpuprofile, memprofile} {
		if p == "" {
			continue
		}
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("profile path not writable: %v", err)
		}
		f.Close()
	}
	return nil
}

// startProfiles begins CPU profiling (if requested) and returns a stop
// function that ends it and writes the heap profile (if requested).
// Call validateProfileFlags first. The stop function is never nil and
// is safe to call once from every exit path that follows it.
func startProfiles(cpuprofile, memprofile string) (func(), error) {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %v", err)
		}
		return func() {
			pprof.StopCPUProfile()
			f.Close()
			writeHeapProfile(memprofile)
		}, nil
	}
	return func() { writeHeapProfile(memprofile) }, nil
}

// writeHeapProfile snapshots the heap after a GC (so the profile shows
// live objects, not garbage). A failure is reported but never fatal —
// the run's real output already happened.
func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cryowire: -memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "cryowire: -memprofile: %v\n", err)
	}
}

// serveMain runs the HTTP service layer (`cryowire serve`).
func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently admitted /v1 requests (default: 2x CPUs)")
	cacheEntries := fs.Int("cache-entries", 0, "response cache entry bound (default 512)")
	cacheBytes := fs.Int64("cache-bytes", 0, "response cache byte bound (default 64 MiB)")
	timeout := fs.Duration("timeout", 0, "per-request computation deadline (default 10m)")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the server's lifetime to this file (incompatible with -pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile at shutdown to this file")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: cryowire serve [-addr :8080] [-max-inflight n] [-cache-entries n]
                      [-cache-bytes n] [-timeout d] [-pprof]
                      [-cpuprofile f] [-memprofile f]

Serves the experiment registry, the full-system simulator and the
facade sweeps as a JSON HTTP API (see README "Serving"). SIGINT/SIGTERM
drain in-flight requests before exiting. Searches past POST /v1/dse's
candidate cap run with "cryowire dse", whose -journal/-resume survive
a crash.
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cryowire serve: unexpected arguments %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if err := validateAddr(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "cryowire serve: %v\n", err)
		fs.Usage()
		return 2
	}
	if *maxInflight < 0 || *cacheEntries < 0 || *cacheBytes < 0 || *timeout < 0 {
		fmt.Fprintln(os.Stderr, "cryowire serve: -max-inflight, -cache-entries, -cache-bytes and -timeout must be >= 0")
		fs.Usage()
		return 2
	}
	if err := validateProfileFlags(*cpuprofile, *memprofile, *enablePprof); err != nil {
		fmt.Fprintf(os.Stderr, "cryowire serve: %v\n", err)
		fs.Usage()
		return 2
	}
	stopProf, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cryowire serve: %v\n", err)
		return 2
	}
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv, err := server.New(server.Config{
		Addr:           *addr,
		MaxInflight:    *maxInflight,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		RequestTimeout: *timeout,
		EnablePprof:    *enablePprof,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cryowire serve: %v\n", err)
		return 1
	}
	if err := srv.ListenAndServe(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "cryowire serve: %v\n", err)
		return 1
	}
	return 0
}

// validateAddr rejects malformed listen addresses and out-of-range
// ports before they turn into a confusing bind error.
func validateAddr(addr string) error {
	_, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("invalid -addr %q: %v", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("invalid -addr %q: port %q is not a number", addr, portStr)
	}
	if port < 0 || port > 65535 {
		return fmt.Errorf("invalid -addr %q: port %d out of range 0-65535", addr, port)
	}
	return nil
}

func runOne(ctx context.Context, id string, opt experiments.Options) error {
	r, err := experiments.RunCtx(ctx, id, opt)
	if err != nil {
		return err
	}
	return emit(r)
}

// emit writes one report to stdout in the selected format.
func emit(r *experiments.Report) error {
	if jsonOut {
		b, err := r.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	fmt.Println(r.Render())
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: cryowire [-quick] [-json] [-parallel] [-workers n]
                [-cpuprofile f] [-memprofile f] <experiment>...
       cryowire list | all
       cryowire serve [-addr :8080] [flags]
       cryowire dse [flags]
       cryowire stage [flags]
       cryowire -version

"list" and "all" stand alone and cannot be combined with experiment
IDs. "all" runs every experiment, keeps going past failures, and exits
non-zero only after printing a failure summary. Ctrl-C cancels the run.

-parallel fans the experiments (and their internal sweeps) out over a
bounded worker pool; every task seeds from its own configuration, so
the output is byte-identical to a serial run.

"serve" exposes the same reports as a JSON HTTP API; see README
"Serving" and `+"`cryowire serve -h`"+` for its flags.

"dse" searches the cryogenic design space (temperature x voltage mode x
pipeline depth x interconnect x workload) and reports the Pareto
frontier; see `+"`cryowire dse -h`"+`.

"stage" evaluates temperature-stage assignments (300 K / 77 K / 4 K)
through the staged cooling chain — cable heat leaks plus per-stage
Carnot-fraction cooling overheads; see `+"`cryowire stage -h`"+`.

-cpuprofile and -memprofile write runtime/pprof profiles of the run
(CPU over the whole invocation; heap snapshotted after a GC at exit)
for inspection with `+"`go tool pprof`"+`.

-version prints the module version, Go toolchain and VCS revision
embedded by the Go build (debug.ReadBuildInfo); /healthz on the server
reports the same values.

Experiments reproduce the CryoWire paper's tables and figures; see
DESIGN.md for the experiment index and EXPERIMENTS.md for results.
`)
}
