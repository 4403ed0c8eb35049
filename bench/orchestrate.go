package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// Results is a results file: untraced runs of the workloads, and the
// latest traced run of each.
type Results struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Nproc   int     `json:"nproc"`
	Go      string  `json:"go"`
	// Runs are the untraced runs in the order they were made, each
	// keyed by workload; compare pairs them by position.
	Runs []map[string]Record `json:"runs"`
	// Traced holds, per workload, the per-layer ledger of a traced run
	// of that workload.
	Traced map[string]Record `json:"traced,omitempty"`
}

// runCmd runs workloads each in a child process of its own, so no
// process-wide state (the default platform, the batch counters, the
// server's caches) leaks from one workload into another, and writes a
// results file.
func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	all := fs.Bool("all", false, "run every workload")
	one := fs.String("workload", "", "run only this workload")
	seed := fs.Int64("seed", 1, "seed the workloads' inputs are drawn from")
	secs := fs.Float64("seconds", defaultSeconds, "run length; fixes each workload's pass count")
	spans := fs.String("trace", "", "then run each workload traced and write every span to this file")
	out := fs.String("out", filepath.Join(buildDir(), "results.json"), "results file to write")
	appendRun := fs.Bool("append", false, "add this run to the runs already in -out instead of replacing them")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	var ws []*workload
	switch {
	case *all && *one == "":
		ws = workloads
	case !*all && *one != "":
		w, err := workloadByName(*one)
		if err != nil {
			return usageError{err}
		}
		ws = []*workload{w}
	default:
		return usageError{errors.New("run needs exactly one of -all and -workload")}
	}

	res := &Results{Seed: *seed, Seconds: *secs, Nproc: runtime.NumCPU(), Go: runtime.Version()}
	if *appendRun {
		prev, err := readResults(*out)
		switch {
		case errors.Is(err, os.ErrNotExist):
		case err != nil:
			return err
		case prev.Seed != *seed || prev.Seconds != *secs:
			return fmt.Errorf("%s holds seed %d at %gs; cannot append seed %d at %gs", *out, prev.Seed, prev.Seconds, *seed, *secs)
		default:
			res = prev
		}
	}

	failed := false
	run := make(map[string]Record)
	for _, w := range ws {
		rec, err := child(w, *seed, *secs, "")
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Printf("== %s ==\n", w.name)
		printLines(rec, endToEnd)
		fmt.Printf("attempted %d failed %d\n", rec.Attempted, rec.Failed)
		run[w.name] = rec
		failed = failed || !rec.Correct
	}
	res.Runs = append(res.Runs, run)

	if *spans != "" {
		var merged []Span
		res.Traced = make(map[string]Record)
		for _, w := range ws {
			path := filepath.Join(buildDir(), "spans-"+w.name+".json")
			rec, err := child(w, *seed, *secs, path)
			if err != nil {
				return fmt.Errorf("%s traced: %w", w.name, err)
			}
			fmt.Printf("== %s (traced) ==\n", w.name)
			printLines(rec, perLayer())
			res.Traced[w.name] = rec
			failed = failed || !rec.Correct
			sp, err := readSpans(path)
			if err != nil {
				return err
			}
			offset := int64(len(merged))
			for i := range sp {
				sp[i].ID += offset
				if sp[i].Parent != 0 {
					sp[i].Parent += offset
				}
			}
			merged = append(merged, sp...)
		}
		if err := writeSpans(*spans, merged); err != nil {
			return err
		}
	}
	if err := writeJSON(*out, res); err != nil {
		return err
	}
	if failed {
		return errors.New("a correctness check failed")
	}
	return nil
}

// child runs one workload in a child process and returns its record.
// A non-empty spans path makes it a traced run that writes its spans
// there.
func child(w *workload, seed int64, secs float64, spans string) (Record, error) {
	exe, err := os.Executable()
	if err != nil {
		return Record{}, err
	}
	f, err := os.CreateTemp("", "cryowire-bench-record-*.json")
	if err != nil {
		return Record{}, err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	args := []string{"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--out", path, "--trace", "0"}
	if spans != "" {
		args = append(args[:len(args)-1], "1", "--spans", spans)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 {
		if runErr != nil {
			return Record{}, runErr
		}
		return Record{}, fmt.Errorf("the run wrote no record")
	}
	var rec Record
	if err := json.Unmarshal(b, &rec); err != nil {
		return Record{}, fmt.Errorf("parse run record: %w", err)
	}
	return rec, nil
}

func readResults(path string) (*Results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Results
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &res, nil
}
