package dse

import (
	"bytes"
	"context"
	"errors"
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
	cfg.Platform = platform.New()
	start := time.Now()
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled search: err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("pre-canceled search took %v to stop", elapsed)
	}
	if st := cfg.Platform.Stats(); st.Misses != 0 {
		t.Errorf("pre-canceled search derived %d platform artifacts", st.Misses)
	}
}
