// Golden determinism gate for the hot-path engine: the timing-wheel
// scheduler, the pooled transaction/packet/event allocators and the
// reusable circuit solver are all rewrites of cycle-exact code, so the
// outputs they feed — experiment reports and the DSE frontier — must be
// byte-identical to the pre-rewrite implementation. The golden bytes in
// testdata/golden_quick.json were generated from the map-based
// scheduler and the allocating solver; any divergence here means the
// optimization changed simulated behavior, not just its speed.
//
// Regenerate (only when an intentional model change lands) with:
//
//	go test -run TestGoldenQuickOutputs -update-golden .
package cryowire

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_quick.json from the current implementation")

// goldenExperiments is the subset of the registry that exercises every
// rewritten hot path: fig3/fig17/fig23 drive sim.System.Step (mesh,
// bus, ideal and both coherence engines), fig10 drives the circuit
// solver's Delay50/SimulateLinkDelay, and fig21, fig25 and fig26 drive
// the raw NoC cycle loops (the 64- and 256-node saturation walks over
// Mesh, CMesh, FB, CryoBus and the hybrid's global mesh).
var goldenExperiments = []string{"fig3", "fig10", "fig17", "fig21", "fig23", "fig25", "fig26"}

// goldenBytes renders the canonical quick-mode output the golden file
// pins: the JSON reports of the subset experiments followed by the JSON
// of a quick grid DSE run (seed 1). workers sets the experiment and DSE
// fan-out; worker count is a scheduling knob, so every count must
// produce the same bytes, which is what the golden variants below gate.
func goldenBytes(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	opt := QuickOptions()
	opt.Workers = workers
	for _, id := range goldenExperiments {
		r, err := RunExperiment(id, opt)
		if err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
		b, err := r.JSON()
		if err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
		fmt.Fprintf(&buf, "== %s ==\n", id)
		buf.Write(b)
		buf.WriteByte('\n')
	}
	res, err := RunDSE(context.Background(), DSEConfig{
		Space:    DefaultDSESpace(true),
		Strategy: "grid",
		Seed:     1,
		Sim:      QuickOptions().Sim,
		Workers:  workers,
	})
	if err != nil {
		t.Fatalf("dse grid: %v", err)
	}
	b, err := res.JSON()
	if err != nil {
		t.Fatalf("dse grid: %v", err)
	}
	buf.WriteString("== dse-grid ==\n")
	buf.Write(b)
	buf.WriteByte('\n')
	return buf.Bytes()
}

// TestQuickOutputsDeterministic asserts run-to-run determinism inside
// one process: two fresh evaluations of the same experiment must render
// byte-identical JSON. Combined with make check's -shuffle=on this
// catches any hidden ordering dependency (map iteration, pool reuse
// order) the golden file alone could mask.
func TestQuickOutputsDeterministic(t *testing.T) {
	run := func() []byte {
		opt := QuickOptions()
		opt.Workers = 1
		r, err := RunExperiment("fig3", opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("two fig3 runs differ:\n first: %q\nsecond: %q", a, b)
	}
}

// TestGoldenQuickOutputs gates the serial run (one worker) against the
// golden bytes; TestGoldenQuickOutputsParallel gates the same output at
// one worker per CPU against the same file.
func TestGoldenQuickOutputs(t *testing.T) {
	path := filepath.Join("testdata", "golden_quick.json")
	got := goldenBytes(t, 1)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden bytes to %s", len(got), path)
		return
	}
	compareGolden(t, got)
}

// TestGoldenQuickOutputsParallel runs the golden subset with one worker
// per CPU: experiment grids and DSE candidates then simulate
// concurrently and complete out of order, and the bytes must still
// match the serial golden file.
func TestGoldenQuickOutputsParallel(t *testing.T) {
	if *updateGolden {
		t.Skip("golden file is written by TestGoldenQuickOutputs")
	}
	compareGolden(t, goldenBytes(t, runtime.NumCPU()))
}

// compareGolden diffs got against testdata/golden_quick.json, failing
// with the first divergent byte and its context.
func compareGolden(t *testing.T, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden_quick.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		// Find the first divergence for a useful failure message.
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		at := n
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				at = i
				break
			}
		}
		lo := at - 80
		if lo < 0 {
			lo = 0
		}
		hiG, hiW := at+80, at+80
		if hiG > len(got) {
			hiG = len(got)
		}
		if hiW > len(want) {
			hiW = len(want)
		}
		t.Fatalf("output diverged from golden at byte %d (got %d bytes, want %d):\n got: …%q…\nwant: …%q…",
			at, len(got), len(want), got[lo:hiG], want[lo:hiW])
	}
}
