package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"cryowire/internal/fault"
	"cryowire/internal/workload"
)

// refStep is System.Step as it was before the core phase became
// event-driven: it visits every core every cycle, adds the commit rate
// to a per-cycle running sum (committed, one entry per core, kept by
// the caller) and runs the miss, lock and barrier code inline whenever
// that sum reaches a threshold. It is kept, with refMeasureCore, as the
// reference Step must match cycle for cycle. It does not maintain
// coreState.nextEvent or use the wake heap; it still advances the tick
// and re-syncs each core's mode, because the shared completeTxn reads a
// core's committed count from the commit table.
func (s *System) refStep(committed []float64) {
	// Pending retries / service completions, in schedule order.
	s.fireEvents()
	s.tick()
	for len(s.wakes) > 0 && s.wakes[0].at <= s.now {
		s.wakes.pop()
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
			committed[i] += s.commits.rate
		}
		if measuring {
			s.refMeasureCore(c, stalled)
		}
		// Demand misses (plus the prefetch stream).
		for committed[i] >= c.nextMissAt && c.outstanding < c.mlpCap {
			s.startTxn(i, false, s.rng.Float64() < 0.3, false)
			c.nextMissAt += c.instrPerMiss * s.expRand()
			if pf := s.design.Prefetch; pf.Enabled {
				for d := 0; d < pf.Degree; d++ {
					s.startTxn(i, false, false, true)
				}
			}
		}
		// Contended lock hand-offs.
		for committed[i] >= c.nextLockAt {
			s.startLockTxn(i)
			c.nextLockAt += s.lockIntv * (0.5 + s.rng.Float64())
		}
		// Barrier entry.
		if committed[i] >= c.nextBarrierAt && !c.inBarrier {
			c.inBarrier = true
			s.startTxn(i, true, true, false)
		}
		s.resync(i, false)
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
// reference Systems' core state or CPI stack, checked against the
// reference's per-cycle committed sums: each core's commit-table value
// on both sides must be bit-equal to its sum. On the fast side it also
// checks that nextEvent is the earliest non-NaN threshold and that the
// mode bookkeeping matches the cores' state (checkCharges).
func compareCores(fast, ref *System, committed []float64) error {
	for i := range fast.cores {
		a, b := &fast.cores[i], &ref.cores[i]
		if got, refGot := fast.committed(a), ref.committed(b); !sameFloat(got, committed[i]) || !sameFloat(refGot, committed[i]) {
			return fmt.Errorf("core %d: committed %v (table), reference %v (table) / %v (per-cycle sum)", i, got, refGot, committed[i])
		}
		if !sameFloat(a.nextMissAt, b.nextMissAt) || !sameFloat(a.nextLockAt, b.nextLockAt) || !sameFloat(a.nextBarrierAt, b.nextBarrierAt) {
			return fmt.Errorf("core %d: thresholds miss %v lock %v barrier %v, reference %v %v %v",
				i, a.nextMissAt, a.nextLockAt, a.nextBarrierAt, b.nextMissAt, b.nextLockAt, b.nextBarrierAt)
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
	if err := checkCharges(fast); err != nil {
		return err
	}
	for k := range fast.stackCycl {
		if !sameFloat(fast.stackCycl[k], ref.stackCycl[k]) {
			return fmt.Errorf("CPI stack %v, reference %v", fast.stackCycl, ref.stackCycl)
		}
	}
	return nil
}

// checkCharges recounts the core-phase bookkeeping from the cores'
// state: each core's synced mode, the per-bucket core counts the CPI
// stack is charged from (base while running, sync at a barrier, the
// stall bucket while stalled), and the stalledDue bitset, which must
// hold exactly the stalled cores whose count has reached their
// threshold.
func checkCharges(s *System) error {
	var charged [bucketCount]int
	for i := range s.cores {
		c := &s.cores[i]
		mode := c.liveMode()
		if c.mode != mode {
			return fmt.Errorf("core %d: synced mode %d, state says %d", i, c.mode, mode)
		}
		bucket := BucketBase
		switch mode {
		case modeStalled:
			bucket = stallBucket(c)
		case modeBarrier:
			bucket = BucketSync
		}
		charged[bucket]++
		due := mode == modeStalled && s.committed(c) >= c.nextEvent
		if inSet := s.stalledDue[i>>6]&(1<<(i&63)) != 0; inSet != due {
			return fmt.Errorf("core %d: stalledDue bit %v in mode %d (committed %v, next event %v)",
				i, inSet, mode, s.committed(c), c.nextEvent)
		}
	}
	if charged != s.charged {
		return fmt.Errorf("bucket core counts %v, cores say %v", s.charged, charged)
	}
	return nil
}

// TestSystemStepMatchesReference runs twin Systems, one on Step and one on
// refStep, cycle by cycle through warm-up and measurement, comparing
// every core and the CPI stack each cycle and the Result bit for bit at
// the end. The designs are the DSE's four interconnects, a prefetching
// one, the Ideal NoC of Fig 17, a fault-injected mesh and CryoBus (slow
// memory responses everywhere; between them the faulted runs must
// exercise injection retries and NACK retransmits), and a 100-core
// mesh and a 128-core CryoBus, whose core bitsets span two words. The
// workloads are barrier-heavy streamcluster, lock-heavy ferret, a
// profile with no L2 misses or barriers, whose miss and barrier
// thresholds are infinite, and a miss-heavy one with few blocking misses
// that fills the MLP window, so stalled cores sit past their miss
// threshold (the flagged-stall path of stepCores). In the nan-miss
// variants core 0's miss threshold is NaN (an infinite interval times a
// zero exponential draw), which must not silence its lock and barrier
// events.
func TestSystemStepMatchesReference(t *testing.T) {
	f := NewFactory()
	wide := NewFactory()
	wide.Cores = 100
	mesh100 := wide.CHPMesh()
	wide.Cores = 128
	bus128 := wide.CryoSPCryoBus()
	faults := &fault.Config{Seed: 5, LinkFailureRate: 0.1, FlitCorruptionRate: 0.05,
		GrantStallRate: 0.5, MemSlowRate: 0.2}
	cases := []struct {
		name  string
		d     Design
		fault *fault.Config
	}{
		{"", f.CHPMesh(), nil},
		{"", f.SharedBus77(), nil},
		{"", f.CryoSPCryoBus(), nil},
		{"", With2WayInterleaving(f.CryoSPCryoBus()), nil},
		{"", WithPrefetcher(f.CHPCryoBus()), nil},
		{"", f.IdealNoC77(), nil},
		{"faults", f.CHPMesh(), faults},
		{"faults", f.CHPCryoBus(), faults},
		{"100-core", mesh100, nil},
		{"128-core", bus128, nil},
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
	windowed := ferret
	windowed.Name, windowed.L2MPKI, windowed.MLP = "mlp-window", 30, 40
	// The twins run as parallel subtests, which finish before the
	// parent's cleanup runs, so the fault counters are complete there.
	// Only faulted twins that ran count, so a -run filter that selects
	// none of them asserts nothing.
	var faulted, retries, retransmits atomic.Int64
	t.Cleanup(func() {
		if faulted.Load() > 0 && (retries.Load() == 0 || retransmits.Load() == 0) {
			t.Errorf("faulted runs made %d injection retries and %d retransmits, want both > 0", retries.Load(), retransmits.Load())
		}
	})
	for _, tc := range cases {
		for _, p := range []workload.Profile{streamcluster, ferret, quiet, windowed} {
			for _, nanMiss := range []bool{false, true} {
				if nanMiss && (p == streamcluster || p == windowed) {
					continue
				}
				name := tc.d.Name + "/" + p.Name
				if tc.name != "" {
					name = tc.name + "/" + name
				}
				if nanMiss {
					name += "/nan-miss"
				}
				cfg := testCfg()
				cfg.Fault = tc.fault
				d, p, nanMiss := tc.d, p, nanMiss
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					r, n := runStepTwins(t, d, p, cfg, nanMiss)
					if cfg.Fault != nil {
						faulted.Add(1)
						retries.Add(r)
						retransmits.Add(n)
					}
				})
			}
		}
	}
}

// runStepTwins drives one (design, profile) pair through Step and
// refStep the way Run does and checks that Run itself agrees. It
// returns the run's injection retries and NACK retransmits.
func runStepTwins(t *testing.T, d Design, p workload.Profile, cfg Config, nanMiss bool) (retries, retransmits int64) {
	mk := func() *System {
		s, err := New(d, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if nanMiss {
			s.cores[0].nextMissAt = math.NaN()
			s.cores[0].armNextEvent()
			s.resync(0, true)
		}
		return s
	}
	fast, ref := mk(), mk()
	committed := make([]float64, len(ref.cores))
	var baseFast, baseRef int64
	var events int
	for cycle := 0; cycle < cfg.WarmupCycles+cfg.MeasureCycles; cycle++ {
		if cycle == cfg.WarmupCycles {
			baseFast, baseRef = fast.startMeasuring(), ref.startMeasuring()
		}
		for _, ev := range fast.wheel.buckets[fast.now&wheelMask] {
			if ev.retry {
				retries++
			}
		}
		before := fast.cores[0].nextEvent
		fast.Step()
		ref.refStep(committed)
		if !sameFloat(before, fast.cores[0].nextEvent) {
			events++
		}
		if err := compareCores(fast, ref, committed); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if events == 0 {
		t.Error("core 0 never reached an event threshold")
	}
	res := fast.result(baseFast)
	got, want := fmt.Sprintf("%#v", res), fmt.Sprintf("%#v", ref.result(baseRef))
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
	return retries, res.Retransmits
}

// TestStalledCoreFollowsItsMissThroughMemory runs a directory mesh on
// a profile whose every miss blocks (CHP's load queue gives MLP 1) and
// half of them go to DRAM, with no locks or barriers. Every cycle the
// per-bucket core counts and stalledDue must match a recount over the
// cores. Each stall on one blocking miss is traced by the bucket its
// core's cycles go to; among them must be an L3 hit, charged NoC → L3 →
// NoC, and a DRAM miss, charged NoC → DRAM → NoC (its L3 lookup is part
// of the DRAM service time), while the core stays stalled throughout.
// The moves into L3 and DRAM are advanceLeg's re-reads, the move back
// to NoC injectLeg's.
func TestStalledCoreFollowsItsMissThroughMemory(t *testing.T) {
	p, err := workload.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	p.Name, p.MLP, p.L2MPKI, p.L3MissRatio, p.LockMPKI, p.BarriersPerMI = "memory-walk", 1, 10, 0.5, 0, 0
	s, err := New(NewFactory().CHPMesh(), p, Config{WarmupCycles: 0, MeasureCycles: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.startMeasuring()
	type stall struct {
		on      *txn
		started int64
		trace   []StallBucket
	}
	open := make([]stall, len(s.cores))
	seen := map[string]int{}
	for cycle := 0; cycle < 3000; cycle++ {
		s.Step()
		if err := checkCharges(s); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		for i := range s.cores {
			c, st := &s.cores[i], &open[i]
			if c.mode != modeStalled || c.blockedOn != st.on || (st.on != nil && st.on.started != st.started) {
				if len(st.trace) > 0 && c.mode != modeStalled {
					seen[fmt.Sprint(st.trace)]++ // the stall ended with its miss
				}
				*st = stall{}
				if c.mode == modeStalled && c.blockedOn != nil {
					*st = stall{on: c.blockedOn, started: c.blockedOn.started}
				}
			}
			if b := StallBucket(c.bucket); st.on != nil && (len(st.trace) == 0 || st.trace[len(st.trace)-1] != b) {
				st.trace = append(st.trace, b)
			}
		}
	}
	for _, want := range [][]StallBucket{{BucketNoC, BucketL3, BucketNoC}, {BucketNoC, BucketDRAM, BucketNoC}} {
		if seen[fmt.Sprint(want)] == 0 {
			t.Errorf("no blocking miss was charged %v while its core stayed stalled; traces %v", want, seen)
		}
	}
}
