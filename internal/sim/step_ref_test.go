package sim

import (
	"fmt"
	"math"
	"testing"

	"cryowire/internal/workload"
)

// refStep is System.Step as it was before the core loop tested one
// next-event threshold per core and charged barrier and base cycles
// once per cycle. It is kept verbatim, with refMeasureCore, as the
// reference Step must match cycle for cycle. It does not maintain
// coreState.nextEvent.
func (s *System) refStep() {
	// Pending retries / service completions, in schedule order.
	for _, ev := range s.wheel.drain(s.now) {
		if ev.pkt != nil {
			// Injection retry (invalidations always ride the main
			// request network).
			net := s.net
			if !ev.inv {
				net = s.legNetwork(ev.t.legs[ev.t.leg].Kind)
			}
			if !net.TryInject(ev.pkt) {
				s.schedule(s.now+1, ev)
				continue
			}
			s.trackInflight(ev.pkt, ev.t, ev.inv)
			s.freeEvent(ev)
			continue
		}
		t := ev.t
		s.freeEvent(ev)
		s.injectLeg(t)
	}
	// Cores. The measurement bookkeeping (CPI-stack floats) is gated on
	// one hoisted flag read so warmup cycles skip it entirely.
	measuring := s.measuring
	for i := range s.cores {
		c := &s.cores[i]
		if c.inBarrier {
			if measuring {
				s.stackCycl[BucketSync]++
			}
			continue
		}
		stalled := c.blockedOn != nil || c.outstanding >= c.mlpCap
		if !stalled {
			c.committed += c.instrPerCycle
		}
		if measuring {
			s.refMeasureCore(c, stalled)
		}
		// Demand misses (plus the prefetch stream).
		for c.committed >= c.nextMissAt && c.outstanding < c.mlpCap {
			s.startTxn(i, false, s.rng.Float64() < 0.3, false)
			c.nextMissAt += c.instrPerMiss * s.expRand()
			if pf := s.design.Prefetch; pf.Enabled {
				for d := 0; d < pf.Degree; d++ {
					s.startTxn(i, false, false, true)
				}
			}
		}
		// Contended lock hand-offs.
		for c.committed >= c.nextLockAt {
			s.startLockTxn(i)
			c.nextLockAt += s.lockIntv * (0.5 + s.rng.Float64())
		}
		// Barrier entry.
		if c.committed >= c.nextBarrierAt && !c.inBarrier {
			c.inBarrier = true
			s.startTxn(i, true, true, false)
		}
	}
	// Networks.
	s.net.Step()
	if s.dataNet != nil {
		s.dataNet.Step()
	}
	s.now++
}

// refMeasureCore is the CPI-stack charge refStep made per core.
func (s *System) refMeasureCore(c *coreState, stalled bool) {
	if !stalled {
		// allowed == rate: the whole cycle is base time (frac == 1).
		s.stackCycl[BucketBase]++
		return
	}
	// allowed == 0: the whole cycle is stall time (frac == 0).
	bucket := BucketNoC
	if c.blockedOn != nil {
		bucket = c.blockedOn.phase
	} else if len(c.txns) > 0 {
		bucket = c.txns[0].phase
	}
	s.stackCycl[bucket]++
}

// sameFloat reports bit equality, so NaN matches NaN and 0 differs
// from −0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compareCores reports the first difference between the fast and
// reference Systems' core state or CPI stack, or a fast-side next-event
// threshold that is not the earliest non-NaN threshold.
func compareCores(fast, ref *System) error {
	for i := range fast.cores {
		a, b := &fast.cores[i], &ref.cores[i]
		if !sameFloat(a.committed, b.committed) || !sameFloat(a.nextMissAt, b.nextMissAt) ||
			!sameFloat(a.nextLockAt, b.nextLockAt) || !sameFloat(a.nextBarrierAt, b.nextBarrierAt) {
			return fmt.Errorf("core %d: committed %v thresholds miss %v lock %v barrier %v, reference %v / %v %v %v",
				i, a.committed, a.nextMissAt, a.nextLockAt, a.nextBarrierAt, b.committed, b.nextMissAt, b.nextLockAt, b.nextBarrierAt)
		}
		if a.outstanding != b.outstanding || a.inBarrier != b.inBarrier {
			return fmt.Errorf("core %d: outstanding %d inBarrier %v, reference %d %v", i, a.outstanding, a.inBarrier, b.outstanding, b.inBarrier)
		}
		want := math.Inf(1)
		for _, t := range []float64{a.nextMissAt, a.nextLockAt, a.nextBarrierAt} {
			if !math.IsNaN(t) {
				want = math.Min(want, t)
			}
		}
		if !sameFloat(a.nextEvent, want) {
			return fmt.Errorf("core %d: next event at %v, earliest threshold %v", i, a.nextEvent, want)
		}
	}
	for k := range fast.stackCycl {
		if !sameFloat(fast.stackCycl[k], ref.stackCycl[k]) {
			return fmt.Errorf("CPI stack %v, reference %v", fast.stackCycl, ref.stackCycl)
		}
	}
	return nil
}

// TestSystemStepMatchesReference runs twin Systems, one on Step and one on
// refStep, cycle by cycle through warm-up and measurement, comparing
// every core and the CPI stack each cycle and the Result bit for bit at
// the end. The designs are the DSE's four interconnects plus a
// prefetching one; the workloads are barrier-heavy streamcluster,
// lock-heavy ferret, and a profile with no L2 misses or barriers, whose
// miss and barrier thresholds are infinite. In the nan-miss variants
// core 0's miss threshold is NaN (an infinite interval times a zero
// exponential draw), which must not silence its lock and barrier
// events.
func TestSystemStepMatchesReference(t *testing.T) {
	f := NewFactory()
	designs := []Design{
		f.CHPMesh(),
		f.SharedBus77(),
		f.CryoSPCryoBus(),
		With2WayInterleaving(f.CryoSPCryoBus()),
		WithPrefetcher(f.CHPCryoBus()),
	}
	ferret, err := workload.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	streamcluster, err := workload.ByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	quiet := ferret
	quiet.Name, quiet.L2MPKI, quiet.BarriersPerMI = "no-misses-no-barriers", 0, 0
	for _, d := range designs {
		for _, p := range []workload.Profile{streamcluster, ferret, quiet} {
			for _, nanMiss := range []bool{false, true} {
				if nanMiss && p.Name == "streamcluster" {
					continue
				}
				name := d.Name + "/" + p.Name
				if nanMiss {
					name += "/nan-miss"
				}
				d, p, nanMiss := d, p, nanMiss
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runStepTwins(t, d, p, nanMiss)
				})
			}
		}
	}
}

// runStepTwins drives one (design, profile) pair through Step and
// refStep the way Run does and checks that Run itself agrees.
func runStepTwins(t *testing.T, d Design, p workload.Profile, nanMiss bool) {
	cfg := testCfg()
	mk := func() *System {
		s, err := New(d, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if nanMiss {
			s.cores[0].nextMissAt = math.NaN()
			s.cores[0].armNextEvent()
		}
		return s
	}
	fast, ref := mk(), mk()
	var baseFast, baseRef int64
	var events int
	for cycle := 0; cycle < cfg.WarmupCycles+cfg.MeasureCycles; cycle++ {
		if cycle == cfg.WarmupCycles {
			baseFast, baseRef = fast.startMeasuring(), ref.startMeasuring()
		}
		before := fast.cores[0].nextEvent
		fast.Step()
		ref.refStep()
		if !sameFloat(before, fast.cores[0].nextEvent) {
			events++
		}
		if err := compareCores(fast, ref); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if events == 0 {
		t.Error("core 0 never reached an event threshold")
	}
	got, want := fmt.Sprintf("%#v", fast.result(baseFast)), fmt.Sprintf("%#v", ref.result(baseRef))
	if got != want {
		t.Fatalf("result\n%s\nreference\n%s", got, want)
	}
	run, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	if viaRun := fmt.Sprintf("%#v", run); viaRun != got {
		t.Fatalf("Run returned\n%s\nthe twin loop\n%s", viaRun, got)
	}
}
