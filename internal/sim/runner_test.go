package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cryowire/internal/fault"
	"cryowire/internal/workload"
)

// batchTestCfg keeps the runner property tests fast: results only need
// to be compared, not statistically meaningful.
func batchTestCfg() Config { return Config{WarmupCycles: 600, MeasureCycles: 2000, Seed: 1} }

// batchTestSpecs returns a mixed grid of specs: different designs,
// workloads and seeds, including snooping and directory protocols.
func batchTestSpecs(t *testing.T) []LaneSpec {
	t.Helper()
	f := NewFactory()
	designs := []Design{f.Baseline300(), f.CHPMesh(), f.CHPCryoBus()}
	var specs []LaneSpec
	for wi, wl := range []string{"ferret", "streamcluster"} {
		p, err := workload.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		for di, d := range designs {
			cfg := batchTestCfg()
			cfg.Seed = int64(1 + wi*len(designs) + di)
			specs = append(specs, LaneSpec{Design: d, Profile: p, Config: cfg})
		}
	}
	return specs
}

// standalone runs one spec through the classic single-run engine.
func standalone(t *testing.T, sp LaneSpec) Result {
	t.Helper()
	s, err := New(sp.Design, sp.Profile, sp.Config)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestBatchOfOneMatchesRun is the identity guarantee: a runner call
// with a single spec produces exactly the bytes System.Run produces.
// Result contains only comparable fields, so == is byte equality.
func TestBatchOfOneMatchesRun(t *testing.T) {
	r := &BatchRunner{}
	for _, sp := range batchTestSpecs(t) {
		want := standalone(t, sp)
		res, errs := r.RunCtx(context.Background(), []LaneSpec{sp})
		if errs[0] != nil {
			t.Fatalf("%s/%s: %v", sp.Design.Name, sp.Profile.Name, errs[0])
		}
		if res[0] != want {
			t.Errorf("%s/%s: runner diverged from System.Run:\n got %+v\nwant %+v",
				sp.Design.Name, sp.Profile.Name, res[0], want)
		}
	}
}

// TestBatchLaneIsolation is the shuffled-submission property test:
// permuting the specs and changing the worker count never changes any
// spec's Result. Each spec's reference comes from a standalone run;
// every permutation × worker count must reproduce it bit-for-bit.
func TestBatchLaneIsolation(t *testing.T) {
	specs := batchTestSpecs(t)
	want := make([]Result, len(specs))
	for i, sp := range specs {
		want[i] = standalone(t, sp)
	}
	perms := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
		{3, 0, 5, 1, 4, 2},
		{2, 5, 0, 4, 1, 3},
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		r := &BatchRunner{Workers: workers}
		for pi, perm := range perms {
			shuffled := make([]LaneSpec, len(perm))
			for k, i := range perm {
				shuffled[k] = specs[i]
			}
			res, errs := r.RunCtx(context.Background(), shuffled)
			for k, i := range perm {
				if errs[k] != nil {
					t.Fatalf("workers=%d perm=%d spec %d: %v", workers, pi, k, errs[k])
				}
				if res[k] != want[i] {
					t.Errorf("workers=%d perm=%d: spec %d diverged:\n got %+v\nwant %+v",
						workers, pi, i, res[k], want[i])
				}
			}
		}
	}
}

// TestBatchRunnerDedup checks that identical specs are simulated once
// and still all receive the right result, and that a ResultCache
// carries completions across calls.
func TestBatchRunnerDedup(t *testing.T) {
	specs := batchTestSpecs(t)
	dup := append(append([]LaneSpec{}, specs...), specs[0], specs[3])
	want := make([]Result, len(specs))
	for i, sp := range specs {
		want[i] = standalone(t, sp)
	}
	cache := NewResultCache()
	r := &BatchRunner{Workers: 2, Cache: cache}
	before := ReadBatchStats()
	res, errs := r.RunCtx(context.Background(), dup)
	for k := range dup {
		if errs[k] != nil {
			t.Fatalf("spec %d: %v", k, errs[k])
		}
	}
	for i := range specs {
		if res[i] != want[i] {
			t.Errorf("spec %d diverged", i)
		}
	}
	if res[len(specs)] != want[0] || res[len(specs)+1] != want[3] {
		t.Error("in-call duplicate got wrong result")
	}
	if got := len(cache.m); got != len(specs) {
		t.Errorf("cache holds %d entries, want %d (duplicates must not re-simulate)", got, len(specs))
	}
	after := ReadBatchStats()
	if got := after.CacheMisses - before.CacheMisses; got != uint64(len(specs)) {
		t.Errorf("simulated %d specs, want %d", got, len(specs))
	}
	if got := after.Batches - before.Batches; got != 1 {
		t.Errorf("Batches rose by %d, want 1", got)
	}
	// Second call: everything served from the cache.
	res2, errs2 := r.RunCtx(context.Background(), specs)
	for i := range specs {
		if errs2[i] != nil {
			t.Fatalf("cached spec %d: %v", i, errs2[i])
		}
		if res2[i] != want[i] {
			t.Errorf("cached spec %d diverged", i)
		}
	}
	if got := ReadBatchStats().Batches - after.Batches; got != 0 {
		t.Errorf("an all-cached call counted %d batches, want 0", got)
	}
}

// TestResultCacheComputesOnce: two concurrent RunCtx calls that share a
// cache and submit one spec simulate it once between them — the later
// caller waits on the in-flight run instead of starting its own.
func TestResultCacheComputesOnce(t *testing.T) {
	sp := batchTestSpecs(t)[0]
	want := standalone(t, sp)
	r := &BatchRunner{Cache: NewResultCache()}
	before := ReadBatchStats()
	var wg sync.WaitGroup
	res := make([]Result, 2)
	errs := make([]error, 2)
	for c := range res {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rs, es := r.RunCtx(context.Background(), []LaneSpec{sp})
			res[c], errs[c] = rs[0], es[0]
		}(c)
	}
	wg.Wait()
	for c := range res {
		if errs[c] != nil {
			t.Fatalf("call %d: %v", c, errs[c])
		}
		if res[c] != want {
			t.Errorf("call %d diverged from System.Run", c)
		}
	}
	after := ReadBatchStats()
	if got := after.CacheMisses - before.CacheMisses; got != 1 {
		t.Errorf("CacheMisses rose by %d, want 1", got)
	}
	if got := after.CacheHits - before.CacheHits; got != 1 {
		t.Errorf("CacheHits rose by %d, want 1", got)
	}
}

// TestResultCacheFailedOwner: when the run that owns a fingerprint
// fails, the failure is not cached — a caller waiting on it (or coming
// later) simulates the spec itself and gets the real result.
func TestResultCacheFailedOwner(t *testing.T) {
	sp := batchTestSpecs(t)[0]
	want := standalone(t, sp)
	cache := NewResultCache()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	doomed := sp
	doomed.Config = doomed.Config.WithContext(canceled)
	_, errs := (&BatchRunner{Cache: cache}).RunCtx(context.Background(), []LaneSpec{doomed})
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("canceled owner error = %v, want context.Canceled", errs[0])
	}
	if len(cache.m) != 0 {
		t.Fatal("a failed run left an entry in the cache")
	}
	res, errs := (&BatchRunner{Cache: cache}).RunCtx(context.Background(), []LaneSpec{sp})
	if errs[0] != nil || res[0] != want {
		t.Fatalf("rerun after a failed owner: err %v, result match %v", errs[0], res[0] == want)
	}

	// Concurrently: whichever call owns the fingerprint, the healthy
	// caller gets the real result — by running it, by waiting on the
	// healthy owner, or by re-running after the doomed owner failed.
	cache = NewResultCache()
	var wg sync.WaitGroup
	var doomedErr, healthyErr error
	var doomedRes, healthyRes Result
	wg.Add(2)
	go func() {
		defer wg.Done()
		rs, es := (&BatchRunner{Cache: cache}).RunCtx(context.Background(), []LaneSpec{doomed})
		doomedRes, doomedErr = rs[0], es[0]
	}()
	go func() {
		defer wg.Done()
		rs, es := (&BatchRunner{Cache: cache}).RunCtx(context.Background(), []LaneSpec{sp})
		healthyRes, healthyErr = rs[0], es[0]
	}()
	wg.Wait()
	if healthyErr != nil || healthyRes != want {
		t.Errorf("healthy caller: err %v, result match %v", healthyErr, healthyRes == want)
	}
	if doomedErr != nil && !errors.Is(doomedErr, context.Canceled) {
		t.Errorf("doomed caller: err %v, want nil or context.Canceled", doomedErr)
	}
	if doomedErr == nil && doomedRes != want {
		t.Error("doomed caller served a wrong result")
	}
}

// TestBatchLaneErrorIsolation mixes a failing spec (invalid design) and
// a pre-canceled spec into a healthy call: the healthy specs must still
// match their standalone references, and the failures must be typed
// *LaneErrors that unwrap to their causes.
func TestBatchLaneErrorIsolation(t *testing.T) {
	specs := batchTestSpecs(t)[:3]
	want := make([]Result, len(specs))
	for i, sp := range specs {
		want[i] = standalone(t, sp)
	}
	bad := specs[0]
	bad.Design.Cores = 1 // fails Validate
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()
	stuck := specs[1]
	stuck.Config.Seed = 999 // distinct fingerprint: must not dedup against specs[1]
	stuck.Config = stuck.Config.WithContext(canceledCtx)

	mixed := []LaneSpec{specs[0], bad, specs[1], stuck, specs[2]}
	for _, workers := range []int{1, 3} {
		res, errs := (&BatchRunner{Workers: workers}).RunCtx(context.Background(), mixed)
		for k, i := range map[int]int{0: 0, 2: 1, 4: 2} {
			if errs[k] != nil {
				t.Fatalf("workers=%d healthy spec %d: %v", workers, k, errs[k])
			}
			if res[k] != want[i] {
				t.Errorf("workers=%d healthy spec %d diverged from standalone reference", workers, k)
			}
		}
		var le *LaneError
		if !errors.As(errs[1], &le) {
			t.Fatalf("invalid-design error %T, want *LaneError", errs[1])
		}
		if le.Lane != 1 {
			t.Errorf("LaneError.Lane = %d, want 1", le.Lane)
		}
		if !errors.As(errs[3], &le) || !errors.Is(errs[3], context.Canceled) {
			t.Errorf("canceled spec error = %v, want *LaneError wrapping context.Canceled", errs[3])
		}
		if le.Lane != 3 {
			t.Errorf("LaneError.Lane = %d, want 3", le.Lane)
		}
	}
}

// TestBatchRunnerCanceled: a call whose context is already done starts
// nothing and stamps every spec with a *LaneError wrapping ctx's error.
func TestBatchRunnerCanceled(t *testing.T) {
	specs := batchTestSpecs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := ReadBatchStats()
	_, errs := (&BatchRunner{Workers: 2}).RunCtx(ctx, specs)
	for k, err := range errs {
		var le *LaneError
		if !errors.As(err, &le) || le.Lane != k || !errors.Is(err, context.Canceled) {
			t.Errorf("spec %d: error %v, want *LaneError{Lane: %d} wrapping context.Canceled", k, err, k)
		}
	}
	if got := ReadBatchStats().CacheMisses - before.CacheMisses; got != 0 {
		t.Errorf("a pre-canceled call simulated %d specs", got)
	}
}

// cancelMidRun is a context that cancels itself 20 ms after a
// simulation first asks for its Done channel, which only Run does: the
// spec carrying it is canceled part-way through its cycle loop.
type cancelMidRun struct {
	context.Context
	cancel context.CancelFunc
	once   sync.Once
}

func newCancelMidRun() *cancelMidRun {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelMidRun{Context: ctx, cancel: cancel}
}

func (c *cancelMidRun) Done() <-chan struct{} {
	c.once.Do(func() { time.AfterFunc(20*time.Millisecond, c.cancel) })
	return c.Context.Done()
}

// TestBatchRunnerScratchReuseIsInvisible checks that a worker's
// reused scratch never shows in a Result: every spec of a mixed call,
// run on scratches earlier specs left behind (after success, a
// watchdog stall or a mid-run cancellation), returns exactly what
// New+Run of that spec alone returns.
func TestBatchRunnerScratchReuseIsInvisible(t *testing.T) {
	quick := Config{WarmupCycles: 1200, MeasureCycles: 5000, Seed: 3}
	cli := Config{WarmupCycles: 4000, MeasureCycles: 16000, Seed: 4}
	f := NewFactory()
	f128 := NewFactory()
	f128.Cores = 128
	faultMesh := quick
	faultMesh.Fault = &fault.Config{Seed: 7, LinkFailureRate: 0.05, FlitCorruptionRate: 0.02, MemSlowRate: 0.2, MemSlowFactor: 40}
	faultBus := quick
	faultBus.Fault = &fault.Config{Seed: 8, FlitCorruptionRate: 0.05, GrantStallRate: 0.05, MemSlowRate: 0.1}
	stall := quick
	stall.Watchdog = Watchdog{CheckInterval: 100, MaxPacketAge: 2}
	type spec struct {
		d   Design
		wl  string
		cfg Config
	}
	mixed := []spec{
		{f.CHPMesh(), "ferret", cli},
		{f.CHPCryoBus(), "streamcluster", quick},
		{With2WayInterleaving(f.CryoSPCryoBus()), "streamcluster", quick},
		{f.Baseline300(), "x264", stall},
		{f.SharedBus77(), "ferret", quick},
		{f.CHPMesh(), "streamcluster", faultMesh},
		{f.IdealNoC77(), "blackscholes", quick},
		{f.SharedBus77(), "streamcluster", faultBus},
		{f.CryoSPMesh(), "x264", quick},
		{f128.CHPCryoBus(), "ferret", quick},
		{f.CryoSPCryoBus(), "x264", cli},
	}
	// The canceled spec runs after the watchdog's stall and before the
	// rest; its run length is far longer than the 20 ms it gets.
	const canceled = 5
	for _, workers := range []int{1, 2} {
		var specs []LaneSpec
		for _, m := range mixed {
			p, err := workload.ByName(m.wl)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, LaneSpec{Design: m.d, Profile: p, Config: m.cfg})
		}
		long := specs[0]
		long.Config = Config{WarmupCycles: 1000, MeasureCycles: 1 << 30, Seed: 9}.WithContext(newCancelMidRun())
		specs = append(specs[:canceled], append([]LaneSpec{long}, specs[canceled:]...)...)

		res, errs := (&BatchRunner{Workers: workers}).RunCtx(context.Background(), specs)
		for i, sp := range specs {
			name := sp.Design.Name + "/" + sp.Profile.Name
			switch {
			case i == canceled:
				if !errors.Is(errs[i], context.Canceled) {
					t.Errorf("workers=%d %s: error %v, want a mid-run cancellation", workers, name, errs[i])
				}
				continue
			case sp.Config.Watchdog.MaxPacketAge != 0:
				var serr *StallError
				if !errors.As(errs[i], &serr) {
					t.Errorf("workers=%d %s: error %v, want a watchdog stall", workers, name, errs[i])
				}
				continue
			case errs[i] != nil:
				t.Fatalf("workers=%d %s: %v", workers, name, errs[i])
			}
			got, want := fmt.Sprintf("%#v", res[i]), fmt.Sprintf("%#v", standalone(t, sp))
			if got != want {
				t.Errorf("workers=%d %s on a reused scratch:\n got %s\nwant %s", workers, name, got, want)
			}
		}
	}
}

// TestReusedScratchAllocatesAQuarter guards what the reuse saves: a
// simulation at CLI run lengths on a reused scratch allocates at most a
// quarter of the bytes New+Run allocates. Measured: 0.21 on CHP-core
// mesh (its networks and transaction pools are still built per run)
// and 0.08 on CryoSP CryoBus, both on ferret.
func TestReusedScratchAllocatesAQuarter(t *testing.T) {
	p, err := workload.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{WarmupCycles: 4000, MeasureCycles: 16000, Seed: 1}
	f := NewFactory()
	for _, d := range []Design{f.CHPMesh(), f.CryoSPCryoBus()} {
		allocated := func(build func() (*System, error)) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		fresh := allocated(func() (*System, error) { return New(d, p, cfg) })
		scr := newScratch()
		allocated(func() (*System, error) { return newOn(scr, d, p, cfg) })
		reused := allocated(func() (*System, error) { return newOn(scr, d, p, cfg) })
		t.Logf("%s: fresh %d B, reused %d B (%.2f)", d.Name, fresh, reused, float64(reused)/float64(fresh))
		if 4*reused > fresh {
			t.Errorf("%s: a reused scratch allocates %d B, over a quarter of a fresh run's %d B", d.Name, reused, fresh)
		}
	}
}
