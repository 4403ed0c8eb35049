package dse

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"cryowire/internal/platform"
	"cryowire/internal/sim"
)

// BenchmarkDSEGrid measures one exhaustive grid search over the quick
// space — the same shape the golden determinism gate pins (seed 1) — at
// one worker and at two, and reports the collections each search set
// off (gcs/op). It exercises every hot path at once: the timing-wheel
// scheduler, pooled transactions and the runner's per-worker scratch
// reuse inside the candidate simulations, and the pooled circuit solver
// inside the per-candidate core derivations. Each iteration builds its
// own platform, as a fresh process would; the platform caches nothing,
// so every candidate's core is derived afresh either way.
func BenchmarkDSEGrid(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{
				Space:    DefaultSpace(true),
				Strategy: StrategyGrid,
				Seed:     1,
				Sim:      sim.Config{WarmupCycles: 400, MeasureCycles: 1600, Seed: 1},
				Workers:  workers,
			}
			var before, after runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Platform = platform.New()
				if _, err := Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
		})
	}
}
