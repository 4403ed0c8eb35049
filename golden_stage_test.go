// Golden determinism gate for the temperature-stage subsystem: the
// staged sweep's JSON — simulation metrics plus per-stage heatload
// breakdowns and Carnot-fraction wall power — is pinned byte for byte
// in testdata/golden_stage.json. Any divergence means the device
// physics, the cable model or the cooling chain changed staged
// behavior, not just its packaging. The 4 K device-physics extension
// must also never perturb these bytes' 300 K and 77 K rows.
//
// Regenerate (only when an intentional model change lands) with:
//
//	go test -run TestGoldenStageSweep -update-golden .
package cryowire

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// goldenStageBytes renders the canonical staged-run output the golden
// file pins: the default three assignments (all-300K, 77K CryoSP,
// 77K+4K split) at quick run lengths — what `cryowire stage -quick
// -json` prints, minus the trailing newline fmt.Println adds.
func goldenStageBytes(t *testing.T, workers int) []byte {
	t.Helper()
	opt := StageSweepOptions{Sim: QuickOptions().Sim, Workers: workers}
	res, err := StageSweep(context.Background(), nil, opt)
	if err != nil {
		t.Fatalf("stage sweep: %v", err)
	}
	b, err := res.JSON()
	if err != nil {
		t.Fatalf("stage sweep: %v", err)
	}
	return append(b, '\n')
}

// TestGoldenStageSweep gates the staged sweep against the pinned
// bytes, then re-runs it at one worker per CPU: the sweep's
// determinism contract says the worker count never changes the bytes,
// so both runs must match the one golden file.
func TestGoldenStageSweep(t *testing.T) {
	path := filepath.Join("testdata", "golden_stage.json")
	got := goldenStageBytes(t, 1)
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
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("staged sweep diverged from %s:\n got: %s\nwant: %s", path, got, want)
	}
	if parallel := goldenStageBytes(t, runtime.NumCPU()); !bytes.Equal(parallel, want) {
		t.Fatal("staged sweep bytes changed with worker count")
	}
}
