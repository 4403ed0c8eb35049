package dse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cryowire/internal/platform"
	"cryowire/internal/sim"
)

// TestConcurrentBatchesMatchSerial: a search evaluating its strategy
// batches on a worker pool produces byte-identical output to the same
// search run serially. Run under the race detector this also exercises
// the concurrent evaluation path.
func TestConcurrentBatchesMatchSerial(t *testing.T) {
	base := Config{
		Space:           DefaultSpace(true),
		Strategy:        StrategyGrid,
		Budget:          8,
		Seed:            5,
		Sim:             quickSim(),
		CheckpointEvery: 3,
		Platform:        platform.New(),
	}
	var want []byte
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		cfg := base
		cfg.Workers = workers
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d diverged from the serial run:\n--- serial ---\n%s\n--- parallel ---\n%s", workers, want, got)
		}
	}
}

// TestEvalErrorsSurface: an evaluation failure fails the search with an
// error naming the candidate and wrapping the typed cause, and a search
// whose context is already done stops without evaluating anything.
func TestEvalErrorsSurface(t *testing.T) {
	cfg := Config{
		Space:    DefaultSpace(true),
		Strategy: StrategyGrid,
		Budget:   2,
		Sim:      quickSim(),
		Workers:  2,
		Platform: platform.New(),
	}
	// A packet-age ceiling of one cycle trips the watchdog on the first
	// check of every candidate.
	cfg.Sim.Watchdog = sim.Watchdog{CheckInterval: 100, MaxPacketAge: 1}
	_, err := Run(context.Background(), cfg)
	var stall *sim.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("stalled evaluation: err = %v, want a wrapped *sim.StallError", err)
	}
	if !strings.Contains(err.Error(), "dse: point "+cfg.Space.At(0).String()) {
		t.Errorf("error %q does not name the first candidate", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Sim = quickSim()
	before := evaluations.Load()
	start := time.Now()
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled search: err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("pre-canceled search took %v to stop", elapsed)
	}
	if n := evaluations.Load() - before; n != 0 {
		t.Errorf("pre-canceled search evaluated %d candidates, want 0", n)
	}
}

// TestDSEEvalsMatchStandalone: every Eval a search records — its whole
// history, read back from the journal, and its frontier — is bit-equal
// to pricing a standalone sim.New+Run of the same candidate, at one and
// two workers, flat and staged. A pre-canceled search hands nothing to
// the runner.
func TestDSEEvalsMatchStandalone(t *testing.T) {
	pf := platform.New()
	standalone := func(s Space, i int) Eval {
		t.Helper()
		pt := s.At(i)
		d, core, err := candidateDesign(pf, pt)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := s.profileByName(pt.Workload)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := sim.New(d, prof, quickSim())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		e, err := finishEval(pf, pt, core, res)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	bits := func(e Eval) string { return fmt.Sprintf("%#v", e) }
	spaces := map[string]Space{
		"flat":   DefaultSpace(true),
		"staged": DefaultSpace(true).WithStages([]float64{77, 4}),
	}
	for name, s := range spaces {
		want := make(map[int]string)
		for _, workers := range []int{1, 2} {
			cfg := Config{
				Space:    s,
				Strategy: StrategyRandom,
				Budget:   12,
				Seed:     1,
				Sim:      quickSim(),
				Workers:  workers,
				Platform: pf,
				Journal:  filepath.Join(t.TempDir(), "dse.jsonl"),
			}
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			hist, err := ReadJournal(cfg.Journal, s, cfg.Sim)
			if err != nil {
				t.Fatal(err)
			}
			if len(hist) != res.Evaluated || res.Evaluated != cfg.Budget {
				t.Fatalf("%s, %d workers: journal holds %d evaluations, result says %d, budget %d",
					name, workers, len(hist), res.Evaluated, cfg.Budget)
			}
			for _, h := range hist {
				if _, ok := want[h.Index]; !ok {
					want[h.Index] = bits(standalone(s, h.Index))
				}
				if got := bits(h.Eval); got != want[h.Index] {
					t.Errorf("%s, %d workers: history point %d = %s, standalone %s", name, workers, h.Index, got, want[h.Index])
				}
			}
			if len(res.Frontier) == 0 {
				t.Fatalf("%s, %d workers: empty frontier", name, workers)
			}
			for _, c := range res.Frontier {
				if got, ok := want[c.Index]; !ok || bits(c.Eval) != got {
					t.Errorf("%s, %d workers: frontier point %d = %s, standalone %s", name, workers, c.Index, bits(c.Eval), got)
				}
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := evaluations.Load()
	_, err := Run(ctx, Config{Space: DefaultSpace(true), Strategy: StrategyRandom, Budget: 12, Seed: 1, Sim: quickSim(), Workers: 2, Platform: pf})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled search: err = %v, want context.Canceled", err)
	}
	if n := evaluations.Load() - before; n != 0 {
		t.Errorf("pre-canceled search handed %d candidates to the runner, want 0", n)
	}
}
