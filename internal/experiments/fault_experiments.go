package experiments

import (
	"fmt"

	"cryowire/internal/fault"
	"cryowire/internal/sim"
	"cryowire/internal/workload"
)

func init() {
	register("faultsweep", FaultSweep)
}

// FaultSweep runs the five Table 4 systems under rising link-failure
// rates and reports how gracefully each degrades. Rate 0 runs with no
// injector at all, so its row reproduces the healthy numbers
// bit-for-bit; at 10% every design must still complete — the CryoBus
// designs fall back from the 1-cycle broadcast to a multi-cycle detour
// span instead of hanging.
func FaultSweep(opt Options) (*Report, error) {
	r := &Report{
		ID:     "faultsweep",
		Title:  "System performance under H-tree segment / link failures",
		Header: []string{"design", "fail rate", "IPC", "rel. IPC", "broadcast cyc", "noc latency", "retransmits"},
		Notes: []string{
			"rate 0 is injector-free and matches the healthy run exactly",
			"CryoBus re-routes dead H-tree segments over neighboring tile wires (detour = 2h+2 hops)",
		},
	}
	rates := []float64{0, 0.02, 0.05, 0.10}
	if opt.Quick {
		rates = []float64{0, 0.10}
	}
	p, err := workload.ByName("ferret")
	if err != nil {
		return nil, err
	}
	designs := evaluationDesigns(opt)
	// The design×rate grid runs through the simulation runner; each
	// cell seeds its own System, so the rows match a serial sweep
	// exactly. The rel. IPC column needs each design's
	// rate-0 result, so rows are assembled after the grid completes.
	nr := len(rates)
	specs := make([]sim.LaneSpec, len(designs)*nr)
	for i := range specs {
		d, rate := designs[i/nr], rates[i%nr]
		cfg := opt.simCfg()
		if rate > 0 {
			cfg.Fault = &fault.Config{
				Seed:               cfg.Seed + 7,
				LinkFailureRate:    rate,
				FlitCorruptionRate: rate / 2,
			}
		}
		specs[i] = sim.LaneSpec{Design: d, Profile: p, Config: cfg}
	}
	results, errs := opt.runSims(specs)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("faultsweep: %s at rate %v: %w",
				designs[i/nr].Name, rates[i%nr], err)
		}
	}
	for di, d := range designs {
		healthy := results[di*nr].IPC
		for ri, rate := range rates {
			res := results[di*nr+ri]
			r.AddRow(d.Name, pct(rate), f3(res.IPC), f3(res.IPC/healthy),
				f2(res.DegradedBroadcastCycles), f2(res.AvgNoCLatency),
				fmt.Sprintf("%d", res.Retransmits))
		}
	}
	return r, nil
}
