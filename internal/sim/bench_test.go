package sim

import (
	"context"
	"runtime"
	"testing"

	"cryowire/internal/platform"
	"cryowire/internal/workload"
)

// benchSystem builds the flagship design on the given net kind, warmed
// past the cold-start transient so the benchmark loop measures the
// steady-state cycle path.
func benchSystem(b testing.TB, mk func(*Factory) Design, wl string) *System {
	b.Helper()
	p, err := workload.ByName(wl)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(mk(NewFactory()), p, Config{WarmupCycles: 1, MeasureCycles: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		s.Step()
	}
	return s
}

// stepCases are the designs the cycle-loop benchmark and allocation
// gate run: one per interconnect the DSE searches (dse.Nets), each on
// the workload that loads it hardest.
var stepCases = []struct {
	name string
	mk   func(*Factory) Design
	wl   string
}{
	{"mesh/ferret", func(f *Factory) Design { return f.CHPMesh() }, "ferret"},
	{"shared-bus/streamcluster", func(f *Factory) Design { return f.SharedBus77() }, "streamcluster"},
	{"cryobus/streamcluster", func(f *Factory) Design { return f.CryoSPCryoBus() }, "streamcluster"},
	{"cryobus-2way/streamcluster", func(f *Factory) Design { return With2WayInterleaving(f.CryoSPCryoBus()) }, "streamcluster"},
}

// BenchmarkSystemStep times the simulator's hot path, one call per NoC
// cycle and tens of thousands per evaluation, on each of stepCases.
func BenchmarkSystemStep(b *testing.B) {
	for _, tc := range stepCases {
		b.Run(tc.name, func(b *testing.B) {
			s := benchSystem(b, tc.mk, tc.wl)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkSystemRun times one whole simulation at the quick run
// lengths (1200 warm-up + 5000 measured cycles, as QuickOptions and the
// DSE's quick searches use), New included, on each of stepCases. Unlike
// BenchmarkSystemStep it pays the per-run setup every candidate of a
// design-space search pays: the networks, the event wheel, the commit
// table and the wake heap.
func BenchmarkSystemRun(b *testing.B) {
	cfg := Config{WarmupCycles: 1200, MeasureCycles: 5000, Seed: 1}
	for _, tc := range stepCases {
		b.Run(tc.name, func(b *testing.B) {
			p, err := workload.ByName(tc.wl)
			if err != nil {
				b.Fatal(err)
			}
			d := tc.mk(NewFactory())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := New(d, p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdDerive times deriving the five evaluation designs on a
// fresh platform: every core, wire and NoC-timing derivation runs, as a
// process's first set-up does. The Bloch–Grüneisen memo in phys lives
// for the process, so only the first iteration integrates (twice: at
// 300 K and 77 K).
func BenchmarkColdDerive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pf := platform.New()
		if ds := NewFactoryWith(pf).Evaluation(); len(ds) == 0 {
			b.Fatal("no evaluation designs")
		}
	}
}

// passWorkloads are the PARSEC profiles of the sim-long benchmark
// workload, which runs each evaluation design on every one of them.
var passWorkloads = []string{"blackscholes", "ferret", "streamcluster", "x264"}

// passSpecs returns one sim-long-shaped pass: the five evaluation
// designs × passWorkloads at the CLI's run lengths (4000 warm-up +
// 16000 measured cycles), design-major.
func passSpecs(tb testing.TB, seed int64) []LaneSpec {
	tb.Helper()
	cfg := Config{WarmupCycles: 4000, MeasureCycles: 16000, Seed: seed}
	var specs []LaneSpec
	for _, d := range NewFactory().Evaluation() {
		for _, wl := range passWorkloads {
			p, err := workload.ByName(wl)
			if err != nil {
				tb.Fatal(err)
			}
			specs = append(specs, LaneSpec{Design: d, Profile: p, Config: cfg})
		}
	}
	return specs
}

// BenchmarkBatchRunnerPass times one sim-long-shaped pass of 20
// simulations in one BatchRunner call at two workers, and reports its
// allocation and the collections it set off (gcs/op): the garbage each
// pass leaves for the collector, and what that costs.
func BenchmarkBatchRunnerPass(b *testing.B) {
	specs := passSpecs(b, 1)
	br := &BatchRunner{Workers: 2}
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := br.RunCtx(context.Background(), specs)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
}
