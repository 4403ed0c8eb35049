package experiments

import (
	"testing"

	"cryowire/internal/platform"
)

// slowIDs are the experiments the existing suite already skips under
// -short: full load-latency sweeps and ablations with long simulations.
var slowIDs = map[string]bool{
	"fig18": true, "fig21": true, "fig25": true, "fig26": true,
	"abl-topology": true, "abl-dynlinks": true, "abl-interleave": true,
}

// runWorkers runs one experiment on a fresh platform with the given
// worker bound and returns the rendered report.
func runWorkers(t *testing.T, id string, workers int) string {
	t.Helper()
	opt := QuickOptions()
	opt.Platform = platform.New()
	opt.Workers = workers
	r, err := Run(id, opt)
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", id, workers, err)
	}
	return r.Render()
}

// The parallel engine's core promise: rendered reports are byte-
// identical at any worker count, because every task seeds from its own
// grid position and results land by index. The IDs below cover every
// fan-out shape — the design×rate fault grid, the profile×design
// simulation grid, the NoC saturation walks (whose rungs fan out too),
// the activity-measurement cases and the flattened core×profile IPC
// grid of Table 3.
func TestSerialParallelByteIdentical(t *testing.T) {
	ids := []string{"faultsweep", "fig17", "fig22-activity", "table3"}
	if !testing.Short() {
		ids = append(ids, "fig21", "fig25", "fig26", "abl-topology", "abl-dynlinks", "abl-interleave", "abl-snoop")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serial := runWorkers(t, id, 1)
			parallel := runWorkers(t, id, 4)
			if serial != parallel {
				t.Errorf("%s: parallel render differs from serial\n--- serial ---\n%s--- parallel ---\n%s",
					id, serial, parallel)
			}
		})
	}
}

// RunAll with a worker pool must return the same outcomes, in the same
// sorted-ID order, as a serial pass over the registry.
func TestRunAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry determinism pass skipped in -short mode")
	}
	run := func(workers int) []Outcome {
		opt := QuickOptions()
		opt.Platform = platform.New()
		opt.Workers = workers
		return RunAll(opt)
	}
	serial := run(1)
	parallel := run(4)
	if len(serial) != len(parallel) || len(serial) != len(IDs()) {
		t.Fatalf("outcome counts differ: serial %d, parallel %d, registry %d",
			len(serial), len(parallel), len(IDs()))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.ID != p.ID {
			t.Fatalf("outcome %d: ID order differs: %q vs %q", i, s.ID, p.ID)
		}
		if (s.Err != nil) != (p.Err != nil) {
			t.Fatalf("%s: error mismatch: serial %v, parallel %v", s.ID, s.Err, p.Err)
		}
		if s.Err != nil {
			continue
		}
		if s.Report.Render() != p.Report.Render() {
			t.Errorf("%s: parallel render differs from serial", s.ID)
		}
		sj, err := s.Report.JSON()
		if err != nil {
			t.Fatalf("%s: JSON: %v", s.ID, err)
		}
		pj, err := p.Report.JSON()
		if err != nil {
			t.Fatalf("%s: JSON: %v", s.ID, err)
		}
		if string(sj) != string(pj) {
			t.Errorf("%s: parallel JSON differs from serial", s.ID)
		}
	}
}

// Every registered experiment must run clean under QuickOptions with
// the registry fanned out via t.Parallel — this is what hammers one
// shared platform concurrently under `make check`'s -race run.
func TestFullRegistryParallel(t *testing.T) {
	pf := platform.New()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && slowIDs[id] {
				t.Skip("slow sweep skipped in -short mode")
			}
			opt := QuickOptions()
			opt.Platform = pf
			opt.Workers = 2
			r, err := Run(id, opt)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if r.ID != id {
				t.Errorf("report ID %q for experiment %q", r.ID, id)
			}
			if len(r.Header) == 0 || len(r.Rows) == 0 {
				t.Errorf("%s: empty report (header %d, rows %d)", id, len(r.Header), len(r.Rows))
			}
		})
	}
}

// Report.JSON must be stable and carry the full report structure.
func TestReportJSONStable(t *testing.T) {
	r := &Report{
		ID:     "fig0",
		Title:  "demo",
		Notes:  []string{"n1"},
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
	}
	b1, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("JSON encoding is not stable")
	}
	want := `{
  "id": "fig0",
  "title": "demo",
  "notes": [
    "n1"
  ],
  "header": [
    "a",
    "b"
  ],
  "rows": [
    [
      "1",
      "2"
    ]
  ]
}`
	if string(b1) != want {
		t.Errorf("JSON layout changed:\n%s\nwant:\n%s", b1, want)
	}
}
