package main

import (
	"context"
	"time"

	"cryowire/internal/experiments"
	"cryowire/internal/par"
	"cryowire/internal/sim"
	profile "cryowire/internal/workload"
)

// simLongWorkloads are the PARSEC profiles sim-long runs each
// evaluation design on.
var simLongWorkloads = []string{"blackscholes", "ferret", "streamcluster", "x264"}

// simLong is the full-system cycle loop alone: the five evaluation
// designs on four PARSEC profiles at CLI run lengths, batched, no cache,
// mesh and CryoBus designs each with their own share of the time. One
// operation is a pass of the 20 simulations; the work is simulated
// instructions committed in the measured cycles.
var simLong = &workload{
	name:         "sim-long",
	nominal:      1250 * time.Millisecond,
	minPasses:    5,
	tracedPasses: 8,
	open:         openSimLong,
	section:      simSection,
}

type simLongSession struct {
	r        *runner
	designs  []sim.Design
	profiles []profile.Profile
	// next numbers the passes: pass p runs at seed seed*1000+p, so no
	// two passes share a spec.
	next    int64
	checked bool
}

func openSimLong(r *runner, e *env) (session, error) {
	profiles := make([]profile.Profile, len(simLongWorkloads))
	for i, n := range simLongWorkloads {
		var err error
		if profiles[i], err = profile.ByName(n); err != nil {
			return nil, err
		}
	}
	return &simLongSession{r: r, designs: e.designs, profiles: profiles}, nil
}

func (s *simLongSession) close() {}

// specs returns the pass's 20 specs, design-major, at the CLI's run
// lengths: caches start empty and the warm-up cycles are left out of
// the statistics.
func (s *simLongSession) specs(seed int64) []sim.LaneSpec {
	cfg := experiments.DefaultOptions().Sim
	cfg.Seed = seed
	var out []sim.LaneSpec
	for _, d := range s.designs {
		for _, p := range s.profiles {
			out = append(out, sim.LaneSpec{Design: d, Profile: p, Config: cfg})
		}
	}
	return out
}

func (s *simLongSession) pass(tr *Tracer, parent int64, _ float64) (passResult, error) {
	specs := s.specs(s.r.seed*1000 + s.next)
	s.next++
	br := &sim.BatchRunner{Workers: s.r.workers}
	var res []sim.Result
	var errs []error
	_, end := tr.Begin(parent, "sim.BatchRunner.RunCtx")
	wall := timed(func() { res, errs = br.RunCtx(context.Background(), specs) })
	end()

	s.r.attempt(len(specs))
	var instr float64
	for i, err := range errs {
		if err != nil {
			s.r.fail("%v", err)
			continue
		}
		instr += res[i].Instructions
	}
	if !s.checked {
		s.checked = true
		solo, soloErrs, _ := runSolo(specs, s.r.workers)
		for i := range specs {
			if soloErrs[i] == nil && errs[i] == nil && !sameResult(solo[i], res[i]) {
				s.r.fail("%s/%s: batched result differs from the solo run", specs[i].Design.Name, specs[i].Profile.Name)
			}
		}
	}
	return passResult{ops: []float64{wall * 1e3}, work: instr, wall: wall}, nil
}

// runSolo runs every spec alone through sim.New+Run on a worker pool
// and returns the results, errors and each run's host seconds.
func runSolo(specs []sim.LaneSpec, workers int) ([]sim.Result, []error, []float64) {
	res := make([]sim.Result, len(specs))
	errs := make([]error, len(specs))
	secs := make([]float64, len(specs))
	par.For(len(specs), workers, func(i int) {
		secs[i] = timed(func() {
			s, err := sim.New(specs[i].Design, specs[i].Profile, specs[i].Config)
			if err != nil {
				errs[i] = err
				return
			}
			res[i], errs[i] = s.Run()
		})
	})
	return res, errs, secs
}

// simSection measures the simulator layer on the sim-long specs: each
// spec run solo (host time per simulated cycle and per coherence
// transaction, and the simulated statistics that a speed-only change
// must leave identical), then the same specs batched.
func simSection(r *runner) error {
	designs, err := coldDerive()
	if err != nil {
		return err
	}
	sess, err := openSimLong(r, &env{designs: designs})
	if err != nil {
		return err
	}
	s := sess.(*simLongSession)
	specs := s.specs(r.seed*1000 + 500)
	r.attempt(2 * len(specs))

	var solo []sim.Result
	var soloErrs []error
	var secs []float64
	r.span(0, "sim.System.Run/solo", func(int64) {
		r.put("sim.solo_pass_s", timed(func() { solo, soloErrs, secs = runSolo(specs, r.workers) }))
	})
	cycles := float64(specs[0].Config.WarmupCycles + specs[0].Config.MeasureCycles)
	var allSecs, txns float64
	per := len(s.profiles)
	for di, slug := range evalSlugs {
		var dsecs, ipc, share, lat float64
		for k := di * per; k < (di+1)*per; k++ {
			if soloErrs[k] != nil {
				r.fail("%v", soloErrs[k])
			}
			dsecs += secs[k]
			txns += float64(solo[k].Transactions)
			ipc += solo[k].IPC
			share += solo[k].NoCShare()
			lat += solo[k].AvgNoCLatency
		}
		allSecs += dsecs
		r.put("sim.ns_per_cycle."+slug, dsecs*1e9/(cycles*float64(per)))
		r.put("sim.ipc."+slug, ipc/float64(per))
		r.put("sim.noc_share."+slug, share/float64(per))
		r.put("sim.avg_noc_latency."+slug, lat/float64(per))
	}
	if txns > 0 {
		r.put("sim.ns_per_txn", allSecs*1e9/txns)
	} else {
		r.fail("the solo runs completed no coherence transactions")
		r.put("sim.ns_per_txn", 0)
	}

	br := &sim.BatchRunner{Workers: r.workers}
	var res []sim.Result
	var errs []error
	before := sim.ReadBatchStats()
	r.span(0, "sim.BatchRunner.RunCtx", func(int64) {
		r.put("sim.batched_pass_s", timed(func() { res, errs = br.RunCtx(context.Background(), specs) }))
	})
	after := sim.ReadBatchStats()
	batches := after.Batches - before.Batches
	r.put("sim.batches", float64(batches))
	if batches > 0 {
		r.put("sim.lanes_per_batch", float64(after.Lanes-before.Lanes)/float64(batches))
	} else {
		r.fail("the batched pass ran no batches")
		r.put("sim.lanes_per_batch", 0)
	}
	for i := range specs {
		switch {
		case errs[i] != nil:
			r.fail("%v", errs[i])
		case soloErrs[i] == nil && !sameResult(solo[i], res[i]):
			r.fail("%s/%s: batched result differs from the solo run", specs[i].Design.Name, specs[i].Profile.Name)
		}
	}
	return nil
}
