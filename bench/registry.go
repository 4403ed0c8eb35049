package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cryowire/internal/circuit"
	"cryowire/internal/experiments"
	"cryowire/internal/noc"
	"cryowire/internal/phys"
	"cryowire/internal/platform"
	"cryowire/internal/sim"
	"cryowire/internal/wire"
)

// goldenPath holds the seed-1 quick-mode JSON of the experiments the
// golden tests pin, relative to the repository root.
var goldenPath = filepath.Join("testdata", "golden_quick.json")

// registryQuick is the whole quick experiment registry, as `cryowire
// all -quick` users wait for it: the only workload where the standalone
// NoC saturation walks dominate and where cross-experiment dedup fires.
// One operation is one experiments.RunAll pass; the work is reports.
var registryQuick = &workload{
	name:         "registry-quick",
	nominal:      4 * time.Second,
	minPasses:    3,
	tracedPasses: 4,
	open:         openRegistry,
	section:      registrySection,
}

type registrySession struct {
	r *runner
	// ref holds the first pass's rendered reports; every later pass
	// must render the same bytes.
	ref []string
}

func openRegistry(r *runner, _ *env) (session, error) {
	return &registrySession{r: r}, nil
}

func (s *registrySession) close() {}

func (s *registrySession) pass(tr *Tracer, parent int64, _ float64) (passResult, error) {
	opt := experiments.QuickOptions()
	opt.Platform = platform.New()
	opt.Workers = s.r.workers
	opt.Sim.Seed = s.r.seed
	var outs []experiments.Outcome
	_, end := tr.Begin(parent, "experiments.RunAll")
	wall := timed(func() { outs = experiments.RunAll(opt) })
	end()

	s.r.attempt(len(outs))
	renders := make([]string, len(outs))
	done := 0
	for i, oc := range outs {
		if oc.Err != nil {
			s.r.fail("%s: %v", oc.ID, oc.Err)
			continue
		}
		renders[i] = oc.Report.Render()
		done++
	}
	if s.ref == nil {
		s.ref = renders
		if s.r.seed == 1 {
			s.checkGolden(outs)
		}
	} else {
		for i := range renders {
			if renders[i] != s.ref[i] {
				s.r.fail("%s: report differs from the first pass", outs[i].ID)
			}
		}
	}
	return passResult{ops: []float64{wall * 1e3}, work: float64(done), wall: wall}, nil
}

// checkGolden compares the pass's JSON reports with the sections of the
// golden file that pin them (seed 1 only: the golden file is seed 1).
func (s *registrySession) checkGolden(outs []experiments.Outcome) {
	golden, err := readGolden(goldenPath)
	if err != nil {
		s.r.fail("%v", err)
		return
	}
	if len(golden) == 0 {
		s.r.fail("golden file %s has no experiment sections", goldenPath)
	}
	byID := make(map[string]*experiments.Report, len(outs))
	for _, oc := range outs {
		byID[oc.ID] = oc.Report
	}
	for id, want := range golden {
		rep := byID[id]
		if rep == nil {
			s.r.fail("golden experiment %s did not run", id)
			continue
		}
		got, err := rep.JSON()
		if err != nil {
			s.r.fail("%s: %v", id, err)
			continue
		}
		if !bytes.Equal(got, want) {
			s.r.fail("%s: JSON differs from %s", id, goldenPath)
		}
	}
}

// readGolden splits the golden file into its "== id ==" sections and
// returns the JSON body of every section named after a registered
// experiment.
func readGolden(path string) (map[string][]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	known := make(map[string]bool)
	for _, id := range experiments.IDs() {
		known[id] = true
	}
	out := make(map[string][]byte)
	for _, sec := range strings.Split("\n"+string(b), "\n== ")[1:] {
		head, body, ok := strings.Cut(sec, " ==\n")
		if ok && known[head] {
			out[head] = []byte(strings.TrimSuffix(body, "\n"))
		}
	}
	return out, nil
}

// registrySection measures the layers registry-quick exercises: every
// experiment alone, the simulation grid the registry submits run three
// ways, the NoC probes, the circuit solver and the platform's cold
// derivation.
func registrySection(r *runner) error {
	opt := experiments.QuickOptions()
	opt.Platform = platform.New()
	opt.Workers = 1
	opt.Sim.Seed = r.seed
	reports := make(map[string]*experiments.Report)
	for _, id := range experiments.IDs() {
		var rep *experiments.Report
		var err error
		var d float64
		r.span(0, "experiments.Run/"+id, func(int64) {
			d = timed(func() { rep, err = experiments.Run(id, opt) })
		})
		r.attempt(1)
		if err != nil {
			r.fail("%s: %v", id, err)
		}
		reports[id] = rep
		r.put("experiments."+id+"_s", d)
	}
	fidelity(r, reports)

	specs, err := observedPass(r)
	if err != nil {
		return err
	}
	gridThreeWay(r, specs)
	nocSection(r)
	circuitSection(r)

	derive := make([]float64, 11)
	for i := range derive {
		runtime.GC()
		var err error
		r.span(0, "platform.coldDerive", func(int64) {
			derive[i] = timed(func() { _, err = coldDerive() })
		})
		if err != nil {
			return err
		}
	}
	r.put("platform.cold_derive_s", derive...)
	return nil
}

var fig23Note = regexp.MustCompile(`vs 300K baseline: ([0-9.]+)x`)

// fidelity reads the two headline paper-fidelity numbers out of the
// serial pass's fig3 and fig23 reports: the average network-bound CPI
// share (paper 45.6 %) and CryoSP+CryoBus's speed-up over the 300 K
// baseline (paper 3.82×).
func fidelity(r *runner, reports map[string]*experiments.Report) {
	share := -1.0
	if rep := reports["fig3"]; rep != nil {
		for _, row := range rep.Rows {
			if len(row) > 0 && row[0] == "average" {
				v, err := strconv.ParseFloat(strings.TrimSuffix(row[len(row)-1], "%"), 64)
				if err == nil {
					share = v / 100
				}
			}
		}
	}
	if share < 0 {
		r.fail("fig3: no average network-bound share")
		share = 0
	}
	r.put("fidelity.fig3_noc_share_avg", share)

	speedup := -1.0
	if rep := reports["fig23"]; rep != nil {
		for _, n := range rep.Notes {
			if m := fig23Note.FindStringSubmatch(n); m != nil {
				if v, err := strconv.ParseFloat(m[1], 64); err == nil {
					speedup = v
				}
			}
		}
	}
	if speedup < 0 {
		r.fail("fig23: no speed-up over the 300K baseline")
		speedup = 0
	}
	r.put("fidelity.fig23_speedup_vs_300k", speedup)
}

// observedPass runs one batched registry pass, records the simulation
// specs it submits, and reports the dedup and platform-cache counts.
func observedPass(r *runner) ([]sim.LaneSpec, error) {
	var mu sync.Mutex
	var specs []sim.LaneSpec
	opt := experiments.QuickOptions()
	opt.Platform = platform.New()
	opt.Workers = r.workers
	opt.Sim.Seed = r.seed
	opt.SpecObserver = func(sp sim.LaneSpec) {
		mu.Lock()
		specs = append(specs, sp)
		mu.Unlock()
	}
	before := sim.ReadBatchStats()
	var outs []experiments.Outcome
	r.span(0, "experiments.RunAll", func(int64) { outs = experiments.RunAll(opt) })
	after := sim.ReadBatchStats()
	r.attempt(len(outs))
	for _, oc := range outs {
		if oc.Err != nil {
			r.fail("%s: %v", oc.ID, oc.Err)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("the registry submitted no simulations")
	}
	unique := make(map[string]bool)
	for _, sp := range specs {
		unique[specKey(sp)] = true
	}
	hits := after.CacheHits - before.CacheHits
	r.put("sim.grid_specs", float64(len(specs)))
	r.put("sim.grid_unique", float64(len(unique)))
	r.put("sim.dedup_hit_ratio", float64(hits)/float64(len(specs)))
	st := opt.Platform.Stats()
	r.put("platform.hits_per_pass", float64(st.Hits))
	r.put("platform.misses_per_pass", float64(st.Misses))
	return specs, nil
}

// specKey identifies a spec by every field that decides its result, the
// way sim.BatchRunner dedups: the context and worker bound never change
// a result, and a fault scenario counts by value.
func specKey(sp sim.LaneSpec) string {
	c := sp.Config
	fault := "none"
	if c.Fault != nil {
		fault = fmt.Sprintf("%#v", *c.Fault)
	}
	return fmt.Sprintf("%#v|%#v|%d|%d|%d|%#v|%s", sp.Design, sp.Profile,
		c.WarmupCycles, c.MeasureCycles, c.Seed, c.Watchdog, fault)
}

// gridThreeWay runs the registry's simulation grid per run (a worker
// pool over sim.New+Run), dedup-only (single-lane batches with a result
// cache) and lockstep (automatic lanes with a result cache), each from
// fresh caches, and checks that all three give bit-equal results.
func gridThreeWay(r *runner, specs []sim.LaneSpec) {
	r.attempt(3 * len(specs))
	var perRun []sim.Result
	var perErr []error
	r.span(0, "sim.grid/perrun", func(int64) {
		r.put("sim.grid_perrun_s", timed(func() { perRun, perErr, _ = runSolo(specs, r.workers) }))
	})
	ways := []struct {
		metric string
		lanes  int
	}{{"sim.grid_dedup_s", 1}, {"sim.grid_lockstep_s", 0}}
	for _, way := range ways {
		br := &sim.BatchRunner{Lanes: way.lanes, Workers: r.workers, Cache: sim.NewResultCache()}
		var res []sim.Result
		var errs []error
		r.span(0, "sim.BatchRunner.RunCtx/"+strings.TrimSuffix(strings.TrimPrefix(way.metric, "sim.grid_"), "_s"), func(int64) {
			r.put(way.metric, timed(func() { res, errs = br.RunCtx(context.Background(), specs) }))
		})
		for i := range specs {
			switch {
			case perErr[i] != nil || errs[i] != nil:
				r.fail("grid spec %d: per-run error %v, batched error %v", i, perErr[i], errs[i])
			case !sameResult(perRun[i], res[i]):
				r.fail("grid spec %d (%s/%s): %s result differs from the per-run result",
					i, specs[i].Design.Name, specs[i].Profile.Name, way.metric)
			}
		}
	}
}

// sameResult reports whether two results are bit-equal: %#v prints
// floats in shortest round-trip form, so distinct values print
// distinctly.
func sameResult(a, b sim.Result) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// nocSection times the NoC layer alone at the registry's quick settings
// (600 warm-up and 2000 measured cycles, uniform traffic): a full
// saturation walk and one sub-saturation load point per network, each
// on one core.
func nocSection(r *runner) {
	pf := platform.New()
	op := noc.Op77()
	mesh1, bus := pf.MeshTiming(op, 1), pf.BusTiming(op)
	nets := map[string]struct {
		mk   func() noc.Network
		rate float64 // well below saturation
	}{
		"mesh256":   {func() noc.Network { return noc.NewMesh(256, mesh1) }, 0.1},
		"hybrid256": {func() noc.Network { return noc.NewHybridCryoBus(bus, mesh1) }, 0.005},
		"mesh64":    {func() noc.Network { return noc.NewMesh(64, mesh1) }, 0.1},
		"cryobus64": {func() noc.Network { return noc.NewCryoBus(64, bus) }, 0.005},
	}
	const warm, measure = 600, 2000
	for _, name := range nocProbes {
		net := nets[name]
		cfg := noc.SweepConfig{Pattern: noc.Uniform{}, Seed: r.seed, WarmupCycles: warm, MeasureCycles: measure}
		r.attempt(2)
		r.span(0, "noc.SaturationRate/"+name, func(int64) {
			r.put("noc.saturation_s."+name, timed(func() { noc.SaturationRate(net.mk, cfg) }))
		})
		cfg.Rates = []float64{net.rate}
		var pts []noc.SweepPoint
		var d float64
		r.span(0, "noc.LoadLatency/"+name, func(int64) {
			d = timed(func() { pts = noc.LoadLatency(net.mk, cfg) })
		})
		if len(pts) != 1 || pts[0].Saturated {
			r.fail("noc %s: load point at rate %g saturated", name, net.rate)
		}
		r.put("noc.ns_per_cycle."+name, d*1e9/(warm+measure))
	}
}

// circuitSection times the transient solver on the representative
// 40-segment repeater-stage ladder (1 mm global wire at 77 K).
func circuitSection(r *runner) {
	ladder := circuit.WireLadder(
		wire.Line{Spec: wire.Global, LengthMM: 1.0, Driver: wire.CryoBusLink().Driver, DriverSize: 1},
		wire.At77(), phys.DefaultMOSFET(), 40)
	const solves = 100
	r.attempt(solves + 1)
	if _, err := ladder.Delay50(); err != nil {
		r.fail("circuit: %v", err)
		r.put("circuit.delay50_us", 0)
		return
	}
	us := make([]float64, solves)
	r.span(0, "circuit.Delay50", func(int64) {
		for i := range us {
			var err error
			us[i] = timed(func() { _, err = ladder.Delay50() }) * 1e6
			if err != nil {
				r.fail("circuit: %v", err)
			}
		}
	})
	r.put("circuit.delay50_us", us...)
}
