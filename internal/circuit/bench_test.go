package circuit

import (
	"testing"

	"cryowire/internal/phys"
	"cryowire/internal/wire"
)

// benchLadder is a representative repeater-stage ladder (the shape
// SimulateLinkDelay solves thousands of times during a sweep).
var benchLadder = Ladder{RDrive: 500, RTotal: 5000, CTotal: 400e-15, CLoad: 20e-15, Segments: 40}

// BenchmarkDelay50 measures the solver inner loop through the public
// Ladder API (pooled scratch after warm-up).
func BenchmarkDelay50(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := benchLadder.Delay50(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateLinkDelay measures one repeatered wire-link hop
// through the transient solver.
func BenchmarkSimulateLinkDelay(b *testing.B) {
	m := phys.DefaultMOSFET()
	lk := wire.CryoBusLink()
	op := wire.At77()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateLinkDelay(lk, op, m); err != nil {
			b.Fatal(err)
		}
	}
}
