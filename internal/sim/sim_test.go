package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"cryowire/internal/coherence"
	"cryowire/internal/workload"
)

// testCfg keeps unit-test runs fast on a single machine.
func testCfg() Config { return Config{WarmupCycles: 2500, MeasureCycles: 9000, Seed: 1} }

func run(t *testing.T, d Design, wl string) Result {
	t.Helper()
	p, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(d, p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDesignsValidate(t *testing.T) {
	f := NewFactory()
	for _, d := range f.Evaluation() {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	if err := f.SharedBus77().Validate(); err != nil {
		t.Error(err)
	}
	if err := f.IdealNoC77().Validate(); err != nil {
		t.Error(err)
	}
}

func TestBasicRunProducesSaneResult(t *testing.T) {
	f := NewFactory()
	r := run(t, f.Baseline300(), "ferret")
	if r.Instructions <= 0 || r.Performance <= 0 || r.NS <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if r.IPC <= 0 || r.IPC > 8 {
		t.Errorf("IPC = %v out of range", r.IPC)
	}
	sum := 0.0
	for _, v := range r.Stack {
		if v < 0 {
			t.Errorf("negative stack bucket: %v", r.Stack)
		}
		sum += v
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("CPI stack sums to %v, want ≈1", sum)
	}
	if r.Transactions <= 0 {
		t.Error("no coherence transactions completed")
	}
}

func TestDeterminism(t *testing.T) {
	f := NewFactory()
	p, _ := workload.ByName("bodytrack")
	mk := func() Result {
		s, err := New(f.CHPMesh(), p, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	if a.Instructions != b.Instructions || a.Performance != b.Performance {
		t.Errorf("simulation not deterministic: %v vs %v", a.Instructions, b.Instructions)
	}
}

func TestFig23Ordering(t *testing.T) {
	// The paper's headline ordering on a representative workload:
	// Baseline(300K) < CHP(77K,Mesh) < CryoSP(77K,CryoBus); CryoBus
	// helps and CryoSP helps.
	f := NewFactory()
	var perf []float64
	for _, d := range f.Evaluation() {
		perf = append(perf, run(t, d, "ferret").Performance)
	}
	base, chpMesh, spMesh, chpBus, spBus := perf[0], perf[1], perf[2], perf[3], perf[4]
	if !(base < chpMesh) {
		t.Errorf("cryogenic CHP system (%v) should beat the 300K baseline (%v)", chpMesh, base)
	}
	if !(chpBus > chpMesh) {
		t.Errorf("CryoBus (%v) should beat 77K Mesh (%v) — Guideline #1", chpBus, chpMesh)
	}
	if !(spBus >= chpBus) {
		t.Errorf("CryoSP+CryoBus (%v) should be the best design (got CryoBus-only %v)", spBus, chpBus)
	}
	if spBus/base < 1.8 {
		t.Errorf("full system speedup vs 300K = %v, want a multiple", spBus/base)
	}
	_ = spMesh
}

func TestStreamclusterLovesCryoBus(t *testing.T) {
	// §6.2: streamcluster gains the most from the snooping CryoBus
	// (paper: 4.63× for CHP-core) because of its barrier intensity.
	f := NewFactory()
	mesh := run(t, f.CHPMesh(), "streamcluster").Performance
	bus := run(t, f.CHPCryoBus(), "streamcluster").Performance
	gain := bus / mesh
	if gain < 2.5 {
		t.Errorf("streamcluster CryoBus gain = %v, want ≥2.5 (paper: 4.63)", gain)
	}
	// And it must exceed a low-sync workload's gain by a wide margin.
	meshBS := run(t, f.CHPMesh(), "blackscholes").Performance
	busBS := run(t, f.CHPCryoBus(), "blackscholes").Performance
	if gain < 2*(busBS/meshBS) {
		t.Errorf("streamcluster gain %v not far above blackscholes gain %v", gain, busBS/meshBS)
	}
}

func TestCryoSPHelpsComputeBoundWork(t *testing.T) {
	// CryoSP's +28% clock shows up on compute-bound workloads
	// (blackscholes/raytrace), paper ≈+16% average across PARSEC.
	f := NewFactory()
	for _, wl := range []string{"blackscholes", "raytrace"} {
		chp := run(t, f.CHPMesh(), wl).Performance
		sp := run(t, f.CryoSPMesh(), wl).Performance
		if sp/chp < 1.10 {
			t.Errorf("%s: CryoSP gain = %v, want ≥1.10", wl, sp/chp)
		}
	}
}

func TestMemoryBoundWorkloadsGainLessFromCryoSP(t *testing.T) {
	// §6.2: bodytrack and x264 show marginal CryoSP gains due to their
	// memory-bounded nature — below the compute-bound apps' gains.
	f := NewFactory()
	gain := func(wl string) float64 {
		return run(t, f.CryoSPMesh(), wl).Performance / run(t, f.CHPMesh(), wl).Performance
	}
	if g, ref := gain("x264"), gain("blackscholes"); g >= ref {
		t.Errorf("x264 CryoSP gain %v should trail blackscholes %v", g, ref)
	}
}

func TestFig17SharedBusNearIdeal(t *testing.T) {
	// Fig 17: at 77 K the shared bus lands close to the ideal NoC while
	// the mesh suffers a large slowdown. Averaged over a PARSEC subset.
	f := NewFactory()
	wls := []string{"bodytrack", "ferret", "streamcluster", "vips"}
	var meshSum, busSum float64
	for _, wl := range wls {
		ideal := run(t, f.IdealNoC77(), wl).Performance
		meshSum += run(t, f.CHPMesh(), wl).Performance / ideal
		busSum += run(t, f.SharedBus77(), wl).Performance / ideal
	}
	mesh := meshSum / float64(len(wls))
	bus := busSum / float64(len(wls))
	if !(bus > mesh) {
		t.Errorf("77K shared bus (%v of ideal) should beat 77K mesh (%v of ideal)", bus, mesh)
	}
	if bus < 0.70 {
		t.Errorf("77K shared bus at %v of ideal, want close to ideal (paper: 0.92)", bus)
	}
	if mesh > 0.85 {
		t.Errorf("77K mesh at %v of ideal, want a visible slowdown (paper: 0.57)", mesh)
	}
}

func TestFig3NoCShare(t *testing.T) {
	// Fig 3's qualitative claim: the NoC (incl. synchronization)
	// significantly affects 64-core PARSEC performance, with the
	// barrier-heavy outlier far above the rest (paper: 45.6% avg,
	// 76.6% max).
	f := NewFactory()
	d := f.Baseline300()
	var sum, max float64
	wls := []string{"blackscholes", "ferret", "fluidanimate", "streamcluster", "x264"}
	for _, wl := range wls {
		share := run(t, d, wl).NoCShare()
		sum += share
		if share > max {
			max = share
		}
	}
	avg := sum / float64(len(wls))
	if avg < 0.10 {
		t.Errorf("average NoC share = %v, want a significant fraction", avg)
	}
	if max < 0.50 {
		t.Errorf("max NoC share = %v, want the barrier outlier above 50%%", max)
	}
}

func TestPrefetcherIncreasesTraffic(t *testing.T) {
	// §7.1's stressor: the aggressive stride prefetcher multiplies NoC
	// transactions.
	f := NewFactory()
	base := run(t, f.CryoSPCryoBus(), "gcc")
	pf := run(t, WithPrefetcher(f.CryoSPCryoBus()), "gcc")
	if pf.Transactions <= base.Transactions {
		t.Errorf("prefetcher did not increase traffic: %d vs %d", pf.Transactions, base.Transactions)
	}
}

func TestInterleavingHelpsUnderPrefetchLoad(t *testing.T) {
	// §7.1: 2-way address interleaving relieves CryoBus contention in
	// the prefetch-amplified SPEC runs.
	f := NewFactory()
	one := run(t, WithPrefetcher(f.CryoSPCryoBus()), "mcf").Performance
	two := run(t, With2WayInterleaving(WithPrefetcher(f.CryoSPCryoBus())), "mcf").Performance
	if two < one*0.98 {
		t.Errorf("2-way interleaving hurt: %v vs %v", two, one)
	}
}

func TestNetKindStrings(t *testing.T) {
	for k, want := range map[NetKind]string{Mesh: "Mesh", SharedBus: "Shared bus", CryoBus: "CryoBus", CryoBus2Way: "CryoBus 2-way", Ideal: "Ideal NoC"} {
		if k.String() != want {
			t.Errorf("NetKind %d = %q, want %q", int(k), k.String(), want)
		}
	}
	if !SharedBus.Snooping() || !CryoBus.Snooping() || Mesh.Snooping() {
		t.Error("protocol mapping wrong: buses snoop, mesh is directory-based")
	}
}

func TestStallBucketStrings(t *testing.T) {
	for b, want := range map[StallBucket]string{BucketBase: "base", BucketNoC: "noc", BucketL3: "l3", BucketDRAM: "dram", BucketSync: "sync"} {
		if b.String() != want {
			t.Errorf("bucket %d = %q, want %q", int(b), b.String(), want)
		}
	}
}

func TestInvalidDesignRejected(t *testing.T) {
	f := NewFactory()
	d := f.Baseline300()
	d.Cores = 1
	p, _ := workload.ByName("vips")
	if _, err := New(d, p, testCfg()); err == nil {
		t.Error("1-core design should be rejected")
	}
	d2 := f.Baseline300()
	d2.NoC.HopsPerCycle = 0
	if _, err := New(d2, p, testCfg()); err == nil {
		t.Error("invalid NoC timing should be rejected")
	}
}

func TestColdWarmConsistency(t *testing.T) {
	// Cryogenic memory (Mem77) on the same core/noc must not be slower
	// than 300K memory: swap the hierarchy only.
	f := NewFactory()
	d := f.Baseline300()
	slow := run(t, d, "canneal").Performance
	d.Memory = f.CHPMesh().Memory // 77K memory
	d.Name = "Baseline+77K memory"
	fast := run(t, d, "canneal").Performance
	if fast <= slow {
		t.Errorf("77K memory (%v) should beat 300K memory (%v) on a DRAM-bound app", fast, slow)
	}
}

func TestBarrierWorkloadShowsSyncStall(t *testing.T) {
	f := NewFactory()
	sc := run(t, f.Baseline300(), "streamcluster")
	if sc.Stack[BucketSync] < 0.3 {
		t.Errorf("streamcluster sync share = %v, want the dominant bucket", sc.Stack[BucketSync])
	}
	// Rate-mode SPEC has no barriers at all.
	spec := run(t, f.Baseline300(), "hmmer")
	if spec.Stack[BucketSync] != 0 {
		t.Errorf("hmmer sync share = %v, want 0", spec.Stack[BucketSync])
	}
}

func TestLockBoundWorkloadIsNoCBound(t *testing.T) {
	f := NewFactory()
	r := run(t, f.Baseline300(), "fluidanimate")
	if r.Stack[BucketNoC] < 0.10 {
		t.Errorf("fluidanimate NoC share = %v, want lock-serialization visible", r.Stack[BucketNoC])
	}
}

func TestDRAMBoundWorkloadShowsDRAMStall(t *testing.T) {
	f := NewFactory()
	r := run(t, f.Baseline300(), "canneal")
	if r.Stack[BucketDRAM] < 0.10 {
		t.Errorf("canneal DRAM share = %v, want the pointer-chaser DRAM-bound", r.Stack[BucketDRAM])
	}
	// The 77K memory system cuts the DRAM share.
	cold := run(t, f.CHPMesh(), "canneal")
	if cold.Stack[BucketDRAM] >= r.Stack[BucketDRAM] {
		t.Errorf("77K DRAM share %v not below 300K %v", cold.Stack[BucketDRAM], r.Stack[BucketDRAM])
	}
}

func TestIdealNoCIsUpperBound(t *testing.T) {
	f := NewFactory()
	for _, wl := range []string{"ferret", "vips"} {
		ideal := run(t, f.IdealNoC77(), wl).Performance
		for _, d := range []Design{f.CHPMesh(), f.SharedBus77(), f.CHPCryoBus()} {
			if p := run(t, d, wl).Performance; p > ideal*1.02 {
				t.Errorf("%s on %s (%v) exceeded the ideal NoC (%v)", wl, d.Name, p, ideal)
			}
		}
	}
}

// A canceled context must abort the cycle loop with a wrapped context
// error, and WithContext must not leak into copies of the config.
func TestRunCanceledContext(t *testing.T) {
	p, err := workload.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := New(NewFactory().Baseline300(), p, testCfg().WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on canceled context = %v, want wrapped context.Canceled", err)
	}
	// The context-free config still runs to completion.
	s2, err := New(NewFactory().Baseline300(), p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(); err != nil {
		t.Fatalf("context-free run failed: %v", err)
	}
}

// TestDirectoryWriteAwaitsLoneInvalidation: a directory write to a
// Shared line with exactly one other sharer must send that sharer its
// invalidation and hold the data leg until the ack is in. Cores 3 and 9
// read a line into Shared, then core 9's write runs on an otherwise
// silent mesh; each cycle's in-flight slots show the invalidation, and
// the data leg only after it has landed.
func TestDirectoryWriteAwaitsLoneInvalidation(t *testing.T) {
	p, err := workload.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	p.Name, p.L2MPKI, p.LockMPKI, p.BarriersPerMI = "silent", 0, 0, 0
	s, err := New(NewFactory().CHPMesh(), p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	const addr, sharer, writer = uint64(0x5000_0000 + 20*64), 3, 9
	home := s.home(addr)
	var read coherence.Transaction
	s.proto.AccessInto(&read, addr, sharer, home, false, true)
	s.proto.AccessInto(&read, addr, writer, home, false, true)
	tx := s.newTxn()
	s.proto.AccessInto(&tx.ctx, addr, writer, home, true, true)
	if inv := tx.ctx.Invalidations; len(inv) != 1 || inv[0].To != sharer {
		t.Fatalf("write to a line shared with core %d invalidates %v", sharer, inv)
	}
	// A prefetch-flagged transaction holds no commit token, so the
	// silent cores stay out of it.
	tx.core, tx.addr, tx.legs, tx.l3Access = writer, addr, tx.ctx.Legs, tx.ctx.L3Access
	tx.invLegs, tx.lockLine, tx.prefetch, tx.started = tx.ctx.Invalidations, -1, true, s.now
	s.injectLeg(tx)
	invSeen, invDone, dataSeen := false, false, false
	for cycle := 0; s.completed == 0; cycle++ {
		if cycle == 1000 {
			t.Fatal("the write never completed")
		}
		s.Step()
		invLive := false
		for _, sl := range s.slots {
			switch {
			case sl.t != tx:
			case sl.inv:
				invLive, invSeen = true, true
			case tx.leg == len(tx.legs)-1:
				if !invDone {
					t.Fatalf("cycle %d: data leg in flight before the invalidation ack", cycle)
				}
				dataSeen = true
			}
		}
		invDone = invSeen && !invLive
	}
	if !invSeen || !dataSeen {
		t.Errorf("invalidation in flight %v, data leg in flight %v; want both", invSeen, dataSeen)
	}
}
