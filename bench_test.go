// Benchmarks: one per paper table/figure with data, so
// `go test -bench=.` regenerates the whole evaluation. The bench
// harness uses quick options (shrunk sweeps); the cryowire CLI runs
// the full-length versions.
package cryowire

import (
	"testing"

	"cryowire/internal/circuit"
	"cryowire/internal/noc"
	"cryowire/internal/phys"
	"cryowire/internal/pipeline"
	"cryowire/internal/wire"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opt := QuickOptions()
	for i := 0; i < b.N; i++ {
		r, err := RunExperiment(id, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatalf("%s: empty report", id)
		}
	}
}

// --- pipeline / wire figures ------------------------------------------------

func BenchmarkFig2CriticalPathBreakdown(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig5WireSpeedups(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig9ModelValidation(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10LinkValidation(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig12StageDelays300K(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13StageDelays77K(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig14Superpipelined(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkTable1ForwardingGeometry(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2ValidationHardware(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3CoreSpecs(b *testing.B)           { benchExperiment(b, "table3") }
func BenchmarkTable4EvaluationSetup(b *testing.B)     { benchExperiment(b, "table4") }

// --- NoC figures -------------------------------------------------------------

func BenchmarkFig16L3LatencyBreakdown(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig18BusLoadLatency(b *testing.B)     { benchExperiment(b, "fig18") }
func BenchmarkFig20BusBreakdown(b *testing.B)       { benchExperiment(b, "fig20") }
func BenchmarkFig21NoCLoadLatency(b *testing.B)     { benchExperiment(b, "fig21") }
func BenchmarkFig25TrafficPatterns(b *testing.B)    { benchExperiment(b, "fig25") }
func BenchmarkFig26HybridCryoBus256(b *testing.B)   { benchExperiment(b, "fig26") }

// --- system figures ----------------------------------------------------------

func BenchmarkFig3CPIStacks(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkFig17BusVsMeshVsIdeal(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFig22NoCPower(b *testing.B)         { benchExperiment(b, "fig22") }
func BenchmarkFig23SystemComparison(b *testing.B) { benchExperiment(b, "fig23") }
func BenchmarkFig24SPECPrefetch(b *testing.B)     { benchExperiment(b, "fig24") }
func BenchmarkFig27TemperatureSweep(b *testing.B) { benchExperiment(b, "fig27") }

// --- micro-benchmarks of the substrates (ablation-grade) ---------------------

// BenchmarkTransientSolver measures the Hspice-lite RC integration.
func BenchmarkTransientSolver(b *testing.B) {
	m := phys.DefaultMOSFET()
	l := wire.NewLine(wire.Forwarding, wire.ForwardingWireLengthMM, 50)
	for i := 0; i < b.N; i++ {
		if _, err := circuit.SimulateWireDelay(l, phys.Nominal45, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuperpipelineDerivation measures the §4.4 methodology.
func BenchmarkSuperpipelineDerivation(b *testing.B) {
	md := pipeline.NewModel(phys.DefaultMOSFET())
	for i := 0; i < b.N; i++ {
		md.Superpipeline(pipeline.BOOM(), pipeline.At77())
	}
}

// BenchmarkMeshCycle measures raw cycle-level mesh simulation speed.
func BenchmarkMeshCycle(b *testing.B) {
	m := noc.NewMesh(64, noc.MeshTiming(phys.Nominal45, phys.DefaultMOSFET(), 1))
	var id int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			p := noc.Packet{ID: id, Src: int(id) % 64, Dst: int(id+31) % 64, Flits: 1, InjectedAt: m.Cycle()}
			id++
			m.TryInject(p)
		}
		m.Step()
	}
}

// BenchmarkCryoBusCycle measures raw bus simulation speed.
func BenchmarkCryoBusCycle(b *testing.B) {
	bus := noc.NewCryoBus(64, noc.BusTiming(noc.Op77(), phys.DefaultMOSFET()))
	var id int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			p := noc.Packet{ID: id, Src: int(id) % 64, Dst: noc.Broadcast, Flits: 1, InjectedAt: bus.Cycle()}
			id++
			bus.TryInject(p)
		}
		bus.Step()
	}
}

// BenchmarkFullSystemSimulation measures end-to-end simulated cycles/s
// of the flagship design.
func BenchmarkFullSystemSimulation(b *testing.B) {
	w, err := WorkloadByName("ferret")
	if err != nil {
		b.Fatal(err)
	}
	d := EvaluationDesigns()[4] // CryoSP (77K, CryoBus)
	cfg := SimConfig{WarmupCycles: 500, MeasureCycles: 2000, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(d, w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation and cross-check benches ----------------------------------------

func BenchmarkFig22ActivityPower(b *testing.B)     { benchExperiment(b, "fig22-activity") }
func BenchmarkTable4DerivedLatencies(b *testing.B) { benchExperiment(b, "table4-derived") }
func BenchmarkAblSuperpipeline(b *testing.B)       { benchExperiment(b, "abl-superpipeline") }
func BenchmarkAblTopology(b *testing.B)            { benchExperiment(b, "abl-topology") }
func BenchmarkAblDynamicLinks(b *testing.B)        { benchExperiment(b, "abl-dynlinks") }
func BenchmarkAblSnoopBenefit(b *testing.B)        { benchExperiment(b, "abl-snoop") }
func BenchmarkAblFrontendPredictor(b *testing.B)   { benchExperiment(b, "abl-frontend") }
func BenchmarkAblAddressInterleaving(b *testing.B) { benchExperiment(b, "abl-interleave") }
