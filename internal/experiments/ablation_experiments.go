package experiments

import (
	"fmt"

	"cryowire/internal/branch"
	"cryowire/internal/noc"
	"cryowire/internal/par"
	"cryowire/internal/phys"
	"cryowire/internal/pipeline"
	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

func init() {
	register("abl-superpipeline", AblSuperpipeline)
	register("abl-topology", AblTopology)
	register("abl-dynlinks", AblDynamicLinks)
	register("abl-snoop", AblSnoopBenefit)
	register("abl-frontend", AblFrontend)
	register("abl-interleave", AblInterleave)
}

// AblSuperpipeline ablates the temperature dependence of frontend
// superpipelining: the methodology splits nothing at 300 K (the
// backend forwarding stages bound the clock) and three stages at 77 K.
func AblSuperpipeline(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-superpipeline",
		Title:  "Ablation: frontend superpipelining at 300K vs 77K",
		Header: []string{"temperature", "stages split", "max path before", "max path after", "frequency gain"},
		Notes:  []string{"300K Observation #2: further frontend pipelining is meaningless at 300K"},
	}
	md := opt.platform().PipelineModel()
	for _, op := range []phys.OperatingPoint{phys.Nominal45, pipeline.At77()} {
		before := pipeline.BOOM()
		res := md.Superpipeline(before, op)
		_, db := md.CriticalPath(before, op)
		_, da := md.CriticalPath(res.Pipeline, op)
		r.AddRow(fmt.Sprintf("%.0fK", float64(op.T)),
			fmt.Sprintf("%d %v", len(res.SplitStages), res.SplitStages),
			f3(db), f3(da), f2(db/da))
	}
	return r, nil
}

// AblTopology ablates the two CryoBus ingredients independently:
// cooling the serpentine bus vs reshaping it into the H-tree at 300 K —
// neither alone reaches the 1-cycle broadcast (§5.2.3, Fig 20's point).
func AblTopology(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-topology",
		Title:  "Ablation: bus topology × temperature",
		Header: []string{"design", "broadcast (cycles)", "zero-load (cycles)", "saturation"},
	}
	pf := opt.platform()
	b300 := pf.BusTiming(phys.Nominal45)
	b77 := pf.BusTiming(noc.Op77())
	cfg := noc.SweepConfig{Pattern: noc.Uniform{}, Seed: 1, Workers: opt.Workers}
	if opt.Quick {
		cfg.WarmupCycles, cfg.MeasureCycles = 600, 2000
	} else {
		cfg.WarmupCycles, cfg.MeasureCycles = 1500, 5000
	}
	cases := []struct {
		name string
		mk   func() *noc.Bus
	}{
		{"serpentine @300K", func() *noc.Bus { return noc.NewSharedBus300(64, b300) }},
		{"serpentine @77K (cooling only)", func() *noc.Bus { return noc.NewSharedBus77(64, b77) }},
		{"H-tree @300K (topology only)", func() *noc.Bus { return noc.NewHTreeBus300(64, b300) }},
		{"H-tree @77K (CryoBus)", func() *noc.Bus { return noc.NewCryoBus(64, b77) }},
	}
	cfg.Ctx = opt.Context()
	rows := make([][]string, len(cases))
	if err := par.ForCtx(opt.Context(), len(cases), opt.Workers, func(i int) {
		c := cases[i]
		b := c.mk()
		_, _, _, bc := b.Breakdown()
		sat := noc.SaturationRate(func() noc.Network { return c.mk() }, cfg)
		rows[i] = []string{c.name, f1(bc), f1(b.ZeroLoadLatency()), fmt.Sprintf("%.4f", sat)}
	}); err != nil {
		return nil, err
	}
	r.Rows = rows
	return r, nil
}

// AblDynamicLinks ablates CryoBus's dynamic link connection: without
// it, every directed data transfer drives the whole H-tree (full
// broadcast occupancy and switching energy).
func AblDynamicLinks(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-dynlinks",
		Title:  "Ablation: CryoBus dynamic link connection on/off",
		Header: []string{"variant", "avg data-transfer occupancy (cycles)", "saturation (mixed traffic)"},
		Notes:  []string{"§5.2.3: dynamic links minimize activated links and avoid wasteful broadcasting for data responses"},
	}
	b77 := opt.platform().BusTiming(noc.Op77())
	mk := func(dyn bool) func() *noc.Bus {
		return func() *noc.Bus {
			return noc.NewBus(noc.BusConfig{
				Name: "cryobus", Nodes: 64, Layout: noc.NewHTree(64),
				Timing: b77, ControlCycles: 1, DynamicLinks: dyn,
			})
		}
	}
	cfg := noc.SweepConfig{Pattern: noc.Uniform{}, Seed: 1, DataFlits: 2, DataFraction: 0.5, Workers: opt.Workers}
	if opt.Quick {
		cfg.WarmupCycles, cfg.MeasureCycles = 600, 2000
	} else {
		cfg.WarmupCycles, cfg.MeasureCycles = 1500, 5000
	}
	cfg.Ctx = opt.Context()
	ht := noc.NewHTree(64)
	variants := []bool{false, true}
	rows := make([][]string, len(variants))
	if err := par.ForCtx(opt.Context(), len(variants), opt.Workers, func(i int) {
		dyn := variants[i]
		name := "static (full broadcast)"
		occ := float64(b77.WireCycles(ht.BroadcastHops()))
		if dyn {
			name = "dynamic link connection"
			// Average directed path under uniform traffic.
			sum, n := 0.0, 0
			for a := 0; a < 64; a += 3 {
				for b := 0; b < 64; b += 5 {
					if a != b {
						sum += float64(b77.WireCycles(ht.PathHops(a, b)))
						n++
					}
				}
			}
			occ = sum / float64(n)
		}
		sat := noc.SaturationRate(func() noc.Network { return mk(dyn)() }, cfg)
		rows[i] = []string{name, f2(occ), fmt.Sprintf("%.4f", sat)}
	}); err != nil {
		return nil, err
	}
	r.Rows = rows
	return r, nil
}

// AblSnoopBenefit isolates why streamcluster explodes on CryoBus: with
// its barriers removed, the CryoBus gain collapses to the ordinary
// latency benefit — the win is the snooping protocol's cheap
// synchronization, not raw bandwidth (§6.2).
func AblSnoopBenefit(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-snoop",
		Title:  "Ablation: streamcluster's CryoBus gain with and without barriers",
		Header: []string{"variant", "CHP(77K,Mesh) perf", "CHP(77K,CryoBus) perf", "CryoBus gain"},
	}
	f := sim.NewFactoryWith(opt.platform())
	p, err := workload.ByName("streamcluster")
	if err != nil {
		return nil, err
	}
	noBarriers := p
	noBarriers.Name = "streamcluster (no barriers)"
	noBarriers.BarriersPerMI = 0
	workloads := []workload.Profile{p, noBarriers}
	designs := []sim.Design{f.CHPMesh(), f.CHPCryoBus()}
	specs := make([]sim.LaneSpec, len(workloads)*len(designs))
	for i := range specs {
		specs[i] = sim.LaneSpec{Design: designs[i%len(designs)], Profile: workloads[i/len(designs)], Config: opt.simCfg()}
	}
	results, errs := opt.runSims(specs)
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	perf := make([]float64, len(specs))
	for i := range results {
		perf[i] = results[i].Performance
	}
	for wi, wl := range workloads {
		mesh, bus := perf[wi*2], perf[wi*2+1]
		r.AddRow(wl.Name, f1(mesh), f1(bus), f2(bus/mesh))
	}
	return r, nil
}

// AblFrontend derives the superpipelining IPC tax from the real
// overriding-predictor model across branch densities (§4.4's 4.2%).
func AblFrontend(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-frontend",
		Title:  "Ablation: IPC cost of the 3 extra frontend stages (overriding-predictor model)",
		Header: []string{"branches/instr", "base CPI", "IPC cost"},
		Notes:  []string{"paper: 4.2% IPC for the three superpipelined stages"},
	}
	n := 120000
	if opt.Quick {
		n = 30000
	}
	for _, c := range []struct{ bpi, cpi float64 }{
		{0.12, 0.45}, {0.18, 0.55}, {0.24, 0.65},
	} {
		cost := branch.SuperpipelineIPCCost(11, n, c.bpi, c.cpi)
		r.AddRow(f2(c.bpi), f2(c.cpi), pct(cost))
	}
	return r, nil
}

// AblInterleave sweeps the address-interleaving factor (§7.1).
func AblInterleave(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-interleave",
		Title:  "Ablation: CryoBus address interleaving 1/2/4-way",
		Header: []string{"ways", "saturation (pkts/node/cycle)"},
		Notes:  []string{"§7.1: prior snooping buses shipped 2- to 8-way interleaving"},
	}
	b77 := opt.platform().BusTiming(noc.Op77())
	cfg := noc.SweepConfig{Pattern: noc.Uniform{}, Seed: 1, Workers: opt.Workers}
	if opt.Quick {
		cfg.WarmupCycles, cfg.MeasureCycles = 600, 2000
	} else {
		cfg.WarmupCycles, cfg.MeasureCycles = 1500, 5000
	}
	cfg.Ctx = opt.Context()
	allWays := []int{1, 2, 4}
	rows := make([][]string, len(allWays))
	if err := par.ForCtx(opt.Context(), len(allWays), opt.Workers, func(i int) {
		ways := allWays[i]
		mk := func() noc.Network {
			if ways == 1 {
				return noc.NewCryoBus(64, b77)
			}
			return noc.NewInterleavedBus(ways, func() *noc.Bus { return noc.NewCryoBus(64, b77) })
		}
		sat := noc.SaturationRate(mk, cfg)
		rows[i] = []string{fmt.Sprintf("%d", ways), fmt.Sprintf("%.4f", sat)}
	}); err != nil {
		return nil, err
	}
	r.Rows = rows
	return r, nil
}
