package experiments

import (
	"fmt"
	"math/rand"

	"cryowire/internal/noc"
	"cryowire/internal/par"
	"cryowire/internal/phys"
)

func init() {
	register("fig22-activity", Fig22Activity)
	register("table4-derived", Table4Derived)
}

// Fig22Activity recomputes the Fig 22 comparison from measured
// switching activity instead of the analytic factors: each NoC carries
// the same PARSEC-class traffic and reports wire-mm and router events,
// which scale its dynamic power.
func Fig22Activity(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig22-activity",
		Title:  "NoC power from measured switching activity (normalized to 300K Mesh)",
		Header: []string{"design", "wire mm/pkt", "router events/pkt", "rel. dynamic", "rel. total (with cooling)"},
		Notes: []string{
			"cross-check of fig22: dynamic power from counted activity × V²f; static from the leakage model",
			"paper: CryoBus 57.2%/40.5%/30.7% below 300K Mesh / 77K Mesh / 77K Shared bus",
		},
	}
	pf := opt.platform()
	m := pf.MOSFET()
	type cfgCase struct {
		name    string
		mk      func() noc.Network
		vdd     float64
		freq    float64
		temp    phys.Kelvin
		bcast   bool
		routers bool
	}
	mesh300 := pf.MeshTiming(phys.Nominal45, 1)
	mesh77 := pf.MeshTiming(noc.Op77(), 1)
	bus77 := pf.BusTiming(noc.Op77())
	cases := []cfgCase{
		{"300K Mesh", func() noc.Network { return noc.NewMesh(64, mesh300) }, 1.0, 1.0, phys.T300, false, true},
		{"77K Mesh", func() noc.Network { return noc.NewMesh(64, mesh77) }, 0.55, 1.36, phys.T77, false, true},
		{"77K Shared bus", func() noc.Network { return noc.NewSharedBus77(64, bus77) }, 0.55, 1.0, phys.T77, true, false},
		{"CryoBus", func() noc.Network { return noc.NewCryoBus(64, bus77) }, 0.55, 1.0, phys.T77, true, false},
	}
	cycles := 20000
	if opt.Quick {
		cycles = 5000
	}
	// Per-wire-mm and per-router-event energy weights (relative units)
	// and the leakage-dominated static share at the 300 K reference.
	const (
		wireWeight   = 1.0
		routerWeight = 3.0
		staticShare  = 0.84
	)
	type measured struct {
		name        string
		wirePerPkt  float64
		eventPerPkt float64
		dynRaw      float64
		static      float64
		temp        phys.Kelvin
	}
	// Each case drives its own network with its own fixed-seed rng, so
	// the measurements fan out over opt.Workers without changing them.
	ms := make([]measured, len(cases))
	errs := make([]error, len(cases))
	if err := par.ForCtx(opt.Context(), len(cases), opt.Workers, func(ci int) {
		c := cases[ci]
		n := c.mk()
		rng := rand.New(rand.NewSource(9))
		var id int64
		delivered0 := n.Stats().Delivered
		for cyc := 0; cyc < cycles; cyc++ {
			for s := 0; s < 64; s++ {
				if rng.Float64() < 0.003 { // PARSEC-class load
					dst := noc.Uniform{}.Dest(s, 64, rng)
					if c.bcast && rng.Float64() < 0.5 {
						dst = noc.Broadcast
					}
					n.TryInject(noc.Packet{ID: id, Src: s, Dst: dst, Flits: 1, InjectedAt: n.Cycle()})
					id++
				}
			}
			n.Step()
		}
		em, ok := n.(noc.EnergyMeter)
		if !ok {
			errs[ci] = fmt.Errorf("fig22-activity: %s has no energy meter", c.name)
			return
		}
		e := em.Energy()
		pkts := float64(n.Stats().Delivered - delivered0)
		if pkts == 0 {
			pkts = 1
		}
		events := float64(e.RouterTraversals + e.BufferWrites)
		activity := wireWeight*e.WireMMFlits + routerWeight*events
		dyn := activity / float64(cycles) * c.vdd * c.vdd * c.freq
		leakOp := phys.OperatingPoint{T: c.temp, Vdd: phys.Volts(c.vdd), Vth: 0.468}
		if c.temp == phys.T77 {
			leakOp.Vth = 0.225
		}
		relLeak := m.LeakageFactor(leakOp) / m.LeakageFactor(phys.OperatingPoint{T: phys.T300, Vdd: 1.0, Vth: 0.468})
		stat := staticShare * c.vdd * relLeak
		ms[ci] = measured{
			name:        c.name,
			wirePerPkt:  e.WireMMFlits / pkts,
			eventPerPkt: events / pkts,
			dynRaw:      dyn,
			static:      stat,
			temp:        c.temp,
		}
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Normalize the activity units so the 300 K mesh lands on the
	// leakage-dominated 16/84 dynamic/static split the paper implies.
	dynScale := (1 - staticShare) / ms[0].dynRaw
	cool := phys.DefaultCooling()
	refDev := ms[0].dynRaw*dynScale + ms[0].static
	refTotal := refDev * (1 + cool.Overhead(ms[0].temp))
	for _, mm := range ms {
		dev := mm.dynRaw*dynScale + mm.static
		total := dev * (1 + cool.Overhead(mm.temp)) / refTotal
		r.AddRow(mm.name, f2(mm.wirePerPkt), f2(mm.eventPerPkt),
			f3(dev/refDev), f3(total))
	}
	return r, nil
}

// Table4Derived re-derives the Table 4 memory latencies from the
// circuit-level CACTI-lite and banked-DRAM models instead of quoting
// them.
func Table4Derived(Options) (*Report, error) {
	r := &Report{
		ID:     "table4-derived",
		Title:  "Table 4 memory latencies derived from circuit models",
		Header: []string{"component", "quoted (Table 4)", "derived", "77K speedup (derived)"},
	}
	// Deferred to the cacti/dram packages via the bridge helper below.
	rows, err := table4DerivedRows()
	if err != nil {
		return nil, err
	}
	r.Rows = rows
	r.Notes = append(r.Notes,
		"caches: CACTI-lite geometry model at the Table 4 voltage points",
		"DRAM: banked DDR4-2400 vs CLL-DRAM timing model")
	return r, nil
}
