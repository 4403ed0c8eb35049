// Golden gate for the full-length NoC saturation walks. The quick-mode
// golden file runs shortened walks only, and only full fig25 takes the
// bursty measureRate path, so the experiments whose numbers come from
// load-latency walks are pinned here at their full run lengths, byte
// for byte, in testdata/golden_full_walks.json.
//
// Regenerate (only when an intentional model change lands) with:
//
//	go test -run TestGoldenFullWalks -update-golden .
package cryowire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// walkExperiments are the registry entries built on saturation and
// load-latency walks: the 64-node Mesh/CMesh/FB/bus walks (fig18,
// fig21, the interleaving, topology and dynamic-link ablations) and the
// 256-node Mesh and hybrid walks (fig25, fig26).
var walkExperiments = []string{"fig18", "fig21", "fig25", "fig26", "abl-interleave", "abl-topology", "abl-dynlinks"}

// TestGoldenFullWalks runs the walk experiments at full length, one
// worker per CPU, and compares their JSON reports with the golden file.
// The run takes several seconds, so it is skipped under -short and
// under the race detector, where it would take minutes.
func TestGoldenFullWalks(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-length walks are skipped under -short and -race")
	}
	var buf bytes.Buffer
	opt := DefaultOptions()
	opt.Workers = runtime.NumCPU()
	for _, id := range walkExperiments {
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
	got := buf.Bytes()
	path := filepath.Join("testdata", "golden_full_walks.json")
	if *updateGolden {
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
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		lo := max(0, at-80)
		t.Fatalf("full-length walks diverged from golden at byte %d (got %d bytes, want %d):\n got: …%q…\nwant: …%q…",
			at, len(got), len(want), got[lo:min(len(got), at+80)], want[lo:min(len(want), at+80)])
	}
}
