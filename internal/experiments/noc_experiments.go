package experiments

import (
	"fmt"

	"cryowire/internal/mem"
	"cryowire/internal/noc"
	"cryowire/internal/par"
	"cryowire/internal/phys"
	"cryowire/internal/platform"
	"cryowire/internal/workload"
)

func init() {
	register("fig16", Fig16)
	register("fig18", Fig18)
	register("fig20", Fig20)
	register("fig21", Fig21)
	register("fig25", Fig25)
	register("fig26", Fig26)
}

// nocUnderTest describes one NoC design for the latency/bandwidth
// figures.
type nocUnderTest struct {
	name string
	mk   func() noc.Network
}

// figNoCs builds the Fig 15/21 design list at 77 K with the given
// router pipeline depth variants, all clocked off the shared platform's
// memoized timings.
func figNoCs(pf *platform.Platform) []nocUnderTest {
	op := noc.Op77()
	mesh1 := pf.MeshTiming(op, 1)
	mesh3 := pf.MeshTiming(op, 3)
	bus := pf.BusTiming(op)
	return []nocUnderTest{
		{"Mesh (1-cycle)", func() noc.Network { return noc.NewMesh(64, mesh1) }},
		{"Mesh (3-cycle)", func() noc.Network { return noc.NewMesh(64, mesh3) }},
		{"CMesh (1-cycle)", func() noc.Network { return noc.NewCMesh(64, mesh1) }},
		{"CMesh (3-cycle)", func() noc.Network { return noc.NewCMesh(64, mesh3) }},
		{"FB (1-cycle)", func() noc.Network { return noc.NewFlattenedButterfly(64, mesh1) }},
		{"FB (3-cycle)", func() noc.Network { return noc.NewFlattenedButterfly(64, mesh3) }},
		{"77K Shared bus", func() noc.Network { return noc.NewSharedBus77(64, bus) }},
		{"CryoBus", func() noc.Network { return noc.NewCryoBus(64, bus) }},
		{"CryoBus (2-way)", func() noc.Network {
			return noc.NewInterleavedBus(2, func() *noc.Bus { return noc.NewCryoBus(64, bus) })
		}},
	}
}

// Fig16 reproduces the L3 hit/miss latency breakdown across NoCs and
// temperatures: NoC round trip (request + response at zero load) plus
// cache and DRAM service.
func Fig16(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig16",
		Title:  "L3 hit and miss latency breakdown (ns) for NoC designs at 300K and 77K",
		Header: []string{"design", "noc (ns)", "hit total (ns)", "miss total (ns)", "noc share of hit"},
		Notes: []string{
			"paper: at 77K the Mesh's NoC takes 71.7%/40.4% of L3 hit/miss latency",
			"paper: the 77K Shared bus nearly reaches the zero-NoC-latency line",
		},
	}
	pf := opt.platform()
	type cfg struct {
		name string
		mk   func() noc.Network
		temp phys.Kelvin
	}
	mesh300 := pf.MeshTiming(phys.Nominal45, 1)
	mesh77 := pf.MeshTiming(noc.Op77(), 1)
	bus300 := pf.BusTiming(phys.Nominal45)
	bus77 := pf.BusTiming(noc.Op77())
	cases := []cfg{
		{"300K Mesh", func() noc.Network { return noc.NewMesh(64, mesh300) }, phys.T300},
		{"300K FB", func() noc.Network { return noc.NewFlattenedButterfly(64, mesh300) }, phys.T300},
		{"300K CMesh", func() noc.Network { return noc.NewCMesh(64, mesh300) }, phys.T300},
		{"300K Shared bus", func() noc.Network { return noc.NewSharedBus300(64, bus300) }, phys.T300},
		{"77K Mesh", func() noc.Network { return noc.NewMesh(64, mesh77) }, phys.T77},
		{"77K FB", func() noc.Network { return noc.NewFlattenedButterfly(64, mesh77) }, phys.T77},
		{"77K CMesh", func() noc.Network { return noc.NewCMesh(64, mesh77) }, phys.T77},
		{"77K Shared bus", func() noc.Network { return noc.NewSharedBus77(64, bus77) }, phys.T77},
	}
	for _, c := range cases {
		n := c.mk()
		var freq float64
		switch v := n.(type) {
		case *noc.RouterNet:
			freq = v.Timing().FreqGHz
		case *noc.Bus:
			freq = v.Timing().FreqGHz
		}
		h := mem.ForTemp(c.temp)
		nocNS := 2 * n.ZeroLoadLatency() / freq // request + response
		hit := nocNS + h.L3.LatencyNS()
		miss := hit + h.DRAMLatencyNS
		r.AddRow(c.name, f2(nocNS), f2(hit), f2(miss), pct(nocNS/hit))
	}
	return r, nil
}

// Fig18 reproduces the shared-bus load-latency study with the workload
// injection bands.
func Fig18(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig18",
		Title:  "Load-latency of the shared bus at 300K and 77K + workload bands",
		Header: []string{"injection rate", "300K bus latency", "77K bus latency"},
		Notes:  []string{"paper: the 300K bus cannot run PARSEC; the 77K bus covers PARSEC but not SPEC/CloudSuite"},
	}
	pf := opt.platform()
	rates := []float64{0.0005, 0.001, 0.002, 0.003, 0.0045, 0.006, 0.009, 0.013}
	if opt.Quick {
		rates = []float64{0.001, 0.003, 0.006}
	}
	cfg := noc.SweepConfig{Pattern: noc.Uniform{}, Seed: 1, Workers: opt.Workers}
	if opt.Quick {
		cfg.WarmupCycles, cfg.MeasureCycles = 800, 2500
	}
	cfg.Rates = rates
	p300 := noc.LoadLatency(func() noc.Network {
		return noc.NewSharedBus300(64, pf.BusTiming(phys.Nominal45))
	}, cfg)
	p77 := noc.LoadLatency(func() noc.Network {
		return noc.NewSharedBus77(64, pf.BusTiming(noc.Op77()))
	}, cfg)
	get := func(pts []noc.SweepPoint, rate float64) string {
		for _, p := range pts {
			if p.InjectionRate == rate {
				if p.Saturated {
					return "saturated"
				}
				return f1(p.AvgLatency)
			}
		}
		return "saturated"
	}
	for _, rate := range rates {
		r.AddRow(fmt.Sprintf("%.4f", rate), get(p300, rate), get(p77, rate))
	}
	for _, s := range []workload.Suite{workload.PARSEC, workload.SPEC2006, workload.SPEC2017, workload.CloudSuite} {
		lo, hi := workload.SuiteInjectionBand(s)
		r.Notes = append(r.Notes, fmt.Sprintf("%s band: %.4f – %.4f req/node/cycle", s, lo, hi))
	}
	return r, nil
}

// Fig20 reproduces the broadcast-latency decomposition of the four bus
// designs.
func Fig20(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig20",
		Title:  "Latency breakdown (cycles) for the bus designs",
		Header: []string{"design", "request", "arbitration", "grant+control", "broadcast", "total"},
		Notes: []string{
			"paper: CryoBus reaches the 1-cycle broadcast; neither 77K cooling nor the H-tree alone suffices",
		},
	}
	pf := opt.platform()
	b300 := pf.BusTiming(phys.Nominal45)
	b77 := pf.BusTiming(noc.Op77())
	buses := []*noc.Bus{
		noc.NewSharedBus300(64, b300),
		noc.NewSharedBus77(64, b77),
		noc.NewHTreeBus300(64, b300),
		noc.NewCryoBus(64, b77),
	}
	for _, b := range buses {
		req, arb, grant, bc := b.Breakdown()
		r.AddRow(b.Name(), f1(req), f1(arb), f1(grant), f1(bc), f1(req+arb+grant+bc))
	}
	return r, nil
}

// loadLatencyReport sweeps a NoC list under one traffic pattern. The
// designs, and each design's saturation walk, fan out over opt.Workers;
// rows land by design index and every rung seeds from (Seed, rate), so
// the report is identical at any worker count.
func loadLatencyReport(id, title string, nets []nocUnderTest, pattern noc.Pattern, opt Options, notes ...string) (*Report, error) {
	r := &Report{
		ID:     id,
		Title:  title,
		Header: []string{"design", "zero-load (cycles)", "saturation (pkts/node/cycle)"},
		Notes:  notes,
	}
	cfg := noc.SweepConfig{Pattern: pattern, Seed: 1, Workers: opt.Workers}
	if opt.Quick {
		cfg.WarmupCycles, cfg.MeasureCycles = 600, 2000
	} else {
		cfg.WarmupCycles, cfg.MeasureCycles = 1500, 5000
	}
	cfg.Ctx = opt.Context()
	rows := make([][]string, len(nets))
	if err := par.ForCtx(opt.Context(), len(nets), opt.Workers, func(i int) {
		n := nets[i]
		zero := n.mk().ZeroLoadLatency()
		sat := noc.SaturationRate(n.mk, cfg)
		rows[i] = []string{n.name, f1(zero), fmt.Sprintf("%.4f", sat)}
	}); err != nil {
		return nil, err
	}
	r.Rows = rows
	return r, nil
}

// Fig21 reproduces the uniform-random load-latency comparison of all
// NoCs at 77 K.
func Fig21(opt Options) (*Report, error) {
	nets := figNoCs(opt.platform())
	if opt.Quick {
		nets = []nocUnderTest{nets[0], nets[6], nets[7]}
	}
	return loadLatencyReport("fig21",
		"Load-latency at uniform random, 77K, voltage-optimized",
		nets, noc.Uniform{}, opt,
		"paper: CryoBus covers every workload band and rivals CMesh/FB (3-cycle) bandwidth",
	)
}

// Fig25 reproduces the other traffic patterns.
func Fig25(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig25",
		Title:  "Load-latency across traffic patterns at 77K",
		Header: []string{"pattern", "design", "zero-load", "saturation"},
		Notes:  []string{"paper: CryoBus keeps the lowest latency on every pattern; router NoCs degrade off uniform"},
	}
	patterns := []noc.Pattern{noc.Transpose{}, noc.Hotspot{}, noc.BitReverse{}, noc.Burst{}}
	if opt.Quick {
		patterns = patterns[:1]
	}
	nets := figNoCs(opt.platform())
	picks := []int{0, 4, 6, 7, 8} // Mesh1c, FB1c, shared bus, CryoBus, 2-way
	if opt.Quick {
		picks = []int{0, 7}
	}
	base := noc.SweepConfig{Seed: 1, Workers: opt.Workers}
	if opt.Quick {
		base.WarmupCycles, base.MeasureCycles = 600, 2000
	} else {
		base.WarmupCycles, base.MeasureCycles = 1500, 5000
	}
	// Flatten the pattern×design grid so the whole figure fans out.
	base.Ctx = opt.Context()
	rows := make([][]string, len(patterns)*len(picks))
	if err := par.ForCtx(opt.Context(), len(rows), opt.Workers, func(i int) {
		pat := patterns[i/len(picks)]
		n := nets[picks[i%len(picks)]]
		cfg := base
		cfg.Pattern = pat
		zero := n.mk().ZeroLoadLatency()
		sat := noc.SaturationRate(n.mk, cfg)
		rows[i] = []string{pat.Name(), n.name, f1(zero), fmt.Sprintf("%.4f", sat)}
	}); err != nil {
		return nil, err
	}
	r.Rows = rows
	return r, nil
}

// Fig26 reproduces the 256-core hybrid CryoBus scalability study.
func Fig26(opt Options) (*Report, error) {
	pf := opt.platform()
	op := noc.Op77()
	mesh1 := pf.MeshTiming(op, 1)
	bus := pf.BusTiming(op)
	nets := []nocUnderTest{
		{"Mesh-256 (1-cycle)", func() noc.Network { return noc.NewMesh(256, mesh1) }},
		{"CMesh-256 (1-cycle)", func() noc.Network { return noc.NewCMesh(256, mesh1) }},
		{"FB-256 (1-cycle)", func() noc.Network { return noc.NewFlattenedButterfly(256, mesh1) }},
		{"Hybrid CryoBus-256", func() noc.Network { return noc.NewHybridCryoBus(bus, mesh1) }},
	}
	if opt.Quick {
		nets = []nocUnderTest{nets[0], nets[3]}
	}
	return loadLatencyReport("fig26",
		"256-core hybrid CryoBus vs router NoCs (uniform random, 77K)",
		nets, noc.Uniform{}, opt,
		"paper: the hybrid keeps the lowest latency and scales comparably to router NoCs",
	)
}
