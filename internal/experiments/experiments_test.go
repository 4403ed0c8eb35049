package experiments

import (
	"strconv"
	"strings"
	"testing"

	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

// runQuick executes an experiment in quick mode and sanity-checks the
// report shape.
func runQuick(t *testing.T, id string) *Report {
	t.Helper()
	r, err := Run(id, QuickOptions())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id {
		t.Errorf("%s: report ID = %q", id, r.ID)
	}
	if len(r.Rows) == 0 {
		t.Fatalf("%s: empty report", id)
	}
	if len(r.Header) == 0 {
		t.Fatalf("%s: no header", id)
	}
	if !strings.Contains(r.Render(), r.Title) {
		t.Errorf("%s: render missing title", id)
	}
	return r
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig5", "fig9", "fig10", "fig12", "fig13", "fig14",
		"fig16", "fig17", "fig18", "fig20", "fig21", "fig22", "fig23",
		"fig24", "fig25", "fig26", "fig27",
		"table1", "table2", "table3", "table4",
		"abl-superpipeline", "abl-topology", "abl-dynlinks",
		"abl-snoop", "abl-frontend", "abl-interleave",
		"fig22-activity", "table4-derived", "faultsweep", "dse-pareto",
		"stagesweep",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registered %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", QuickOptions()); err == nil {
		t.Error("unknown experiment should error")
	}
}

func cell(t *testing.T, r *Report, rowName, colName string) string {
	t.Helper()
	col := -1
	for i, h := range r.Header {
		if h == colName {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("%s: no column %q in %v", r.ID, colName, r.Header)
	}
	for _, row := range r.Rows {
		if row[0] == rowName {
			return row[col]
		}
	}
	t.Fatalf("%s: no row %q", r.ID, rowName)
	return ""
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func TestFig2Report(t *testing.T) {
	r := runQuick(t, "fig2")
	avg := parse(t, cell(t, r, "average", "wire portion"))
	if avg < 54 || avg > 61 {
		t.Errorf("fig2 average wire portion = %v%%, want ≈57.6%%", avg)
	}
}

func TestFig5Report(t *testing.T) {
	r := runQuick(t, "fig5")
	sg := parse(t, cell(t, r, "0.90", "semi-global (b)"))
	if sg < 2.1 || sg > 2.4 {
		t.Errorf("fig5 0.9mm repeated semi-global = %v, want ≈2.25", sg)
	}
	gl := parse(t, cell(t, r, "6.22", "global (b)"))
	if gl < 3.2 || gl > 3.6 {
		t.Errorf("fig5 6.22mm repeated global = %v, want ≈3.38", gl)
	}
}

func TestFig9Report(t *testing.T) {
	r := runQuick(t, "fig9")
	for _, row := range r.Rows {
		errPct := parse(t, row[len(row)-1])
		if errPct < -10 || errPct > 10 {
			t.Errorf("fig9 %s model error %v%% too large", row[0], errPct)
		}
	}
}

func TestFig10Report(t *testing.T) {
	r := runQuick(t, "fig10")
	errPct := parse(t, r.Rows[0][3])
	if errPct < -5 || errPct > 5 {
		t.Errorf("fig10 model-vs-transient error = %v%%, want within 5%% (paper: 1.6%%)", errPct)
	}
}

func TestFig14Report(t *testing.T) {
	r := runQuick(t, "fig14")
	// Superpipelined stage list: 16 representative stages + max row.
	if len(r.Rows) != 17 {
		t.Errorf("fig14 rows = %d, want 16 stages + max", len(r.Rows))
	}
	max := parse(t, cell(t, r, "** max **", "delay (norm.)"))
	if max < 0.60 || max > 0.64 {
		t.Errorf("fig14 max critical path = %v, want ≈0.62", max)
	}
}

func TestFig16Report(t *testing.T) {
	r := runQuick(t, "fig16")
	share := parse(t, cell(t, r, "77K Mesh", "noc share of hit"))
	if share < 50 || share > 85 {
		t.Errorf("fig16 77K mesh NoC share of L3 hit = %v%%, want ≈71.7%%", share)
	}
	meshHit := parse(t, cell(t, r, "77K Mesh", "hit total (ns)"))
	busHit := parse(t, cell(t, r, "77K Shared bus", "hit total (ns)"))
	if busHit >= meshHit {
		t.Errorf("77K bus L3 hit (%v) should beat mesh (%v)", busHit, meshHit)
	}
}

func TestFig20Report(t *testing.T) {
	r := runQuick(t, "fig20")
	bc := parse(t, cell(t, r, "CryoBus", "broadcast"))
	if bc != 1 {
		t.Errorf("fig20 CryoBus broadcast = %v, want the 1-cycle broadcast", bc)
	}
	bc300 := parse(t, cell(t, r, "300K Shared bus", "broadcast"))
	if bc300 != 8 {
		t.Errorf("fig20 300K shared bus broadcast = %v, want 8", bc300)
	}
}

func TestFig22Report(t *testing.T) {
	r := runQuick(t, "fig22")
	cryo := parse(t, cell(t, r, "CryoBus", "total power (with cooling)"))
	if cryo > 0.55 {
		t.Errorf("fig22 CryoBus total power = %v of 300K mesh, want ≈0.43", cryo)
	}
}

func TestFig27Report(t *testing.T) {
	r := runQuick(t, "fig27")
	var pp77, pp100 float64
	for _, row := range r.Rows {
		switch row[0] {
		case "77.0":
			pp77 = parse(t, row[6])
		case "100.0":
			pp100 = parse(t, row[6])
		}
	}
	if pp100 <= pp77 {
		t.Errorf("fig27: perf/power at 100K (%v) should beat 77K (%v)", pp100, pp77)
	}
}

func TestTable3Report(t *testing.T) {
	r := runQuick(t, "table3")
	freqRow := r.Rows[0]
	if freqRow[0] != "frequency (GHz)" {
		t.Fatalf("unexpected first row %v", freqRow)
	}
	if v := parse(t, freqRow[4]); v < 7.6 || v > 8.1 {
		t.Errorf("table3 CryoSP frequency = %v, want ≈7.84", v)
	}
	// IPC row: deeper/narrower designs commit less at iso-frequency.
	var ipcRow []string
	for _, row := range r.Rows {
		if row[0] == "IPC @4GHz (sim)" {
			ipcRow = row
		}
	}
	if ipcRow == nil {
		t.Fatal("table3 missing IPC row")
	}
	base := parse(t, ipcRow[1])
	cryoSP := parse(t, ipcRow[4])
	if base != 1.0 {
		t.Errorf("baseline IPC normalization = %v", base)
	}
	if cryoSP >= 1.0 || cryoSP < 0.75 {
		t.Errorf("CryoSP relative IPC = %v, want in [0.75,1.0) (paper: 0.90)", cryoSP)
	}
}

func TestTable4Report(t *testing.T) {
	r := runQuick(t, "table4")
	if len(r.Rows) != 5 {
		t.Errorf("table4 has %d designs, want 5", len(r.Rows))
	}
	if got := cell(t, r, "CryoSP (77K, CryoBus)", "protocol"); got != "snooping" {
		t.Errorf("CryoBus protocol = %q, want snooping", got)
	}
	if got := cell(t, r, "Baseline (300K, Mesh)", "protocol"); got != "directory" {
		t.Errorf("mesh protocol = %q, want directory", got)
	}
}

func TestSimBackedReportsRun(t *testing.T) {
	// Smoke-run the heavyweight experiments in quick mode.
	for _, id := range []string{"fig3", "fig17", "fig23", "fig24"} {
		r := runQuick(t, id)
		if len(r.Rows) < 2 {
			t.Errorf("%s: suspiciously small report", id)
		}
	}
}

func TestNoCSweepReportsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("NoC sweeps are slow")
	}
	for _, id := range []string{"fig18", "fig21", "fig25", "fig26"} {
		runQuick(t, id)
	}
}

func TestAblationSuperpipeline(t *testing.T) {
	r := runQuick(t, "abl-superpipeline")
	// 300K row splits nothing; 77K row splits 3 stages.
	if got := r.Rows[0][1]; got != "0 []" {
		t.Errorf("300K split = %q, want none", got)
	}
	gain := parse(t, r.Rows[1][4])
	if gain < 1.25 || gain > 1.40 {
		t.Errorf("77K superpipelining frequency gain = %v, want ≈1.32", gain)
	}
}

func TestAblationSnoop(t *testing.T) {
	r := runQuick(t, "abl-snoop")
	withB := parse(t, r.Rows[0][3])
	without := parse(t, r.Rows[1][3])
	if withB < 2.0 {
		t.Errorf("streamcluster CryoBus gain with barriers = %v, want large", withB)
	}
	if without > withB/2 {
		t.Errorf("no-barrier gain %v should collapse relative to %v", without, withB)
	}
}

func TestAblationFrontend(t *testing.T) {
	r := runQuick(t, "abl-frontend")
	for _, row := range r.Rows {
		cost := parse(t, row[2])
		if cost < 1.0 || cost > 9.0 {
			t.Errorf("frontend IPC cost %v%% outside the plausible band (paper: 4.2%%)", cost)
		}
	}
}

func TestAblationSweepsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation sweeps are slow")
	}
	for _, id := range []string{"abl-topology", "abl-dynlinks", "abl-interleave"} {
		runQuick(t, id)
	}
}

func TestFig22Activity(t *testing.T) {
	r := runQuick(t, "fig22-activity")
	cryo := parse(t, cell(t, r, "CryoBus", "rel. total (with cooling)"))
	mesh77 := parse(t, cell(t, r, "77K Mesh", "rel. total (with cooling)"))
	if cryo >= mesh77 {
		t.Errorf("activity-based CryoBus total %v should be below 77K Mesh %v", cryo, mesh77)
	}
	if cryo > 0.6 {
		t.Errorf("activity-based CryoBus total %v should sit well below the 300K mesh", cryo)
	}
	// Dynamic link connection shows up as less wire driven per packet
	// than the serpentine bus.
	cbWire := parse(t, cell(t, r, "CryoBus", "wire mm/pkt"))
	sbWire := parse(t, cell(t, r, "77K Shared bus", "wire mm/pkt"))
	if cbWire >= sbWire {
		t.Errorf("CryoBus wire/pkt %v not below serpentine %v", cbWire, sbWire)
	}
}

func TestTable4Derived(t *testing.T) {
	r := runQuick(t, "table4-derived")
	if len(r.Rows) != 4 {
		t.Fatalf("table4-derived rows = %d, want 4", len(r.Rows))
	}
	dramSp := parse(t, r.Rows[3][3])
	if dramSp < 3.7 || dramSp > 3.9 {
		t.Errorf("derived DRAM speedup = %v, want ≈3.81", dramSp)
	}
	for _, row := range r.Rows[:3] {
		sp := parse(t, row[3])
		if sp < 1.8 || sp > 2.9 {
			t.Errorf("%s derived cache speedup = %v, want ≈2×", row[0], sp)
		}
	}
}

func TestRenderContainsAllRows(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "b"}}
	r.AddRow("r1", "v1")
	r.AddRow("r2", "v2")
	out := r.Render()
	for _, want := range []string{"r1", "v1", "r2", "v2", "a", "b"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestEvaluate(t *testing.T) {
	f := sim.NewFactory()
	designs := []sim.Design{f.CHPMesh(), f.CryoSPCryoBus()}
	var profiles []workload.Profile
	for _, n := range []string{"streamcluster", "vips"} {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	opt := Options{Sim: sim.Config{WarmupCycles: 1500, MeasureCycles: 6000, Seed: 1}}
	ev, err := evaluate(opt, designs, profiles, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Perf) != 2 || len(ev.Perf[0]) != 2 {
		t.Fatalf("evaluation shape wrong: %+v", ev)
	}
	if ev.MeanSpeedup[0] != 1.0 {
		t.Errorf("reference mean speedup = %v, want 1", ev.MeanSpeedup[0])
	}
	if ev.MeanSpeedup[1] <= 1.2 {
		t.Errorf("CryoSP+CryoBus mean speedup = %v, want a clear win on this subset", ev.MeanSpeedup[1])
	}
	// Bad reference index rejected.
	if _, err := evaluate(opt, designs, profiles, 5); err == nil {
		t.Error("out-of-range reference should error")
	}
}
