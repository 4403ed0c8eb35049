package noc

import (
	"math/rand"
	"testing"

	"cryowire/internal/fault"
)

func mustInjector(t *testing.T, cfg fault.Config) *fault.Injector {
	t.Helper()
	in, err := fault.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// The acceptance-criteria test: kill one H-tree segment and assert the
// CryoBus broadcast degrades from its 1-cycle span to a finite
// multi-cycle span instead of panicking or keeping the healthy timing.
func TestKilledHTreeSegmentDegradesBroadcast(t *testing.T) {
	healthy := NewHTree(64)
	// Kill the level-2 trunk of quadrant 0 (the L2-hub→root segment).
	deg, err := DegradeHTree(healthy, []HTreeSegment{{Level: 2, Index: 0}})
	if err != nil {
		t.Fatal(err)
	}
	// The dead 3-hop trunk detours over 2·3+2 = 8 hops, so quadrant-0
	// leaves now sit 1+2+8 = 11 hops from the root and the broadcast
	// span doubles that.
	if got := deg.ReqHops(0); got != 11 {
		t.Errorf("degraded quadrant-0 climb = %d hops, want 11", got)
	}
	if got := deg.ReqHops(63); got != 6 {
		t.Errorf("unaffected quadrant climb = %d hops, want healthy 6", got)
	}
	if got := deg.BroadcastHops(); got != 22 {
		t.Errorf("degraded broadcast span = %d hops, want 22", got)
	}
	// Local traffic inside an intact block keeps its healthy distance.
	if got, want := deg.PathHops(0, 1), healthy.PathHops(0, 1); got != want {
		t.Errorf("intact-block path = %d hops, want %d", got, want)
	}
	// On 77 K wires the healthy 12-hop span is the famous 1-cycle
	// broadcast; the degraded span must be a finite multi-cycle one.
	tm := bus77()
	h, d := tm.WireCycles(healthy.BroadcastHops()), tm.WireCycles(deg.BroadcastHops())
	if h != 1 {
		t.Fatalf("healthy CryoBus broadcast = %d cycles, want 1", h)
	}
	if d <= h {
		t.Errorf("degraded broadcast = %d cycles, want > %d", d, h)
	}
}

func TestDegradeHTreeRejectsUnknownSegment(t *testing.T) {
	base := NewHTree(64)
	for _, bad := range []HTreeSegment{{Level: 3, Index: 0}, {Level: -1, Index: 0}, {Level: 0, Index: 64}, {Level: 2, Index: 4}} {
		if _, err := DegradeHTree(base, []HTreeSegment{bad}); err == nil {
			t.Errorf("segment %+v accepted, want error", bad)
		}
	}
}

func TestDegradedSerpentineAddsDetours(t *testing.T) {
	base := NewSerpentine(64)
	in := mustInjector(t, fault.Config{Seed: 21, LinkFailureRate: 0.3})
	deg := degradeSerpentineWith(base, in, "test")
	if deg == nil {
		t.Fatal("30% failure rate left the whole serpentine intact")
	}
	if got, want := deg.BroadcastHops(), base.BroadcastHops(); got <= want {
		t.Errorf("degraded serpentine span = %d hops, want > healthy %d", got, want)
	}
	// A path crossing no dead segment keeps its healthy cost.
	for a := 0; a < 64; a++ {
		for b := 0; b < 64; b++ {
			if deg.PathHops(a, b) < base.PathHops(a, b) {
				t.Fatalf("degraded path %d→%d shorter than healthy", a, b)
			}
		}
	}
}

// runBusTraffic drives a deterministic uniform load and returns the
// stats. The rng only shapes the offered traffic, never the faults.
func runBusTraffic(b *Bus, cycles int, seed int64) Stats {
	rng := rand.New(rand.NewSource(seed))
	var id int64
	for cyc := 0; cyc < cycles; cyc++ {
		for s := 0; s < b.Nodes(); s++ {
			if rng.Float64() < 0.005 {
				p := &Packet{ID: id, Src: s, Dst: Broadcast, Flits: 1, InjectedAt: b.Cycle()}
				id++
				b.TryInject(p)
			}
		}
		b.Step()
	}
	return *b.Stats()
}

func TestZeroBusFaultRatesBitForBit(t *testing.T) {
	// An injector whose bus-relevant rates are all zero (here: only
	// MemSlowRate is active, which buses never consult) must leave the
	// bus results bit-for-bit identical to an uninjected run.
	plain := NewCryoBus(64, bus77())
	faulted := NewCryoBus(64, bus77())
	faulted.AttachInjector(mustInjector(t, fault.Config{Seed: 3, MemSlowRate: 0.5}), "data")
	a := runBusTraffic(plain, 4000, 7)
	b := runBusTraffic(faulted, 4000, 7)
	if a != b {
		t.Errorf("zero-bus-fault stats diverged: healthy %+v vs injected %+v", a, b)
	}
}

func TestCryoBusCompletesDegraded(t *testing.T) {
	// At a 10% segment-failure rate the CryoBus must keep delivering —
	// slower, never hung.
	healthy := NewCryoBus(64, bus77())
	faulted := NewCryoBus(64, bus77())
	faulted.AttachInjector(mustInjector(t, fault.Config{Seed: 5, LinkFailureRate: 0.10}), "data")
	if _, ok := faulted.Layout().(*DegradedHTree); !ok {
		t.Fatalf("10%% failure rate with seed 5 degraded nothing (layout %T)", faulted.Layout())
	}
	h := runBusTraffic(healthy, 6000, 11)
	f := runBusTraffic(faulted, 6000, 11)
	if f.Delivered == 0 {
		t.Fatal("degraded CryoBus delivered nothing")
	}
	if f.AvgLatency() <= h.AvgLatency() {
		t.Errorf("degraded latency %.2f not worse than healthy %.2f", f.AvgLatency(), h.AvgLatency())
	}
	if faulted.ZeroLoadLatency() <= healthy.ZeroLoadLatency() {
		t.Errorf("degraded zero-load %.2f not worse than healthy %.2f", faulted.ZeroLoadLatency(), healthy.ZeroLoadLatency())
	}
}

func TestFlitCorruptionForcesBoundedRetransmits(t *testing.T) {
	b := NewCryoBus(64, bus77())
	in := mustInjector(t, fault.Config{Seed: 1, FlitCorruptionRate: 1, MaxRetries: 4})
	b.AttachInjector(in, "data")
	p := &Packet{ID: 42, Src: 0, Dst: Broadcast, Flits: 1, InjectedAt: 0}
	if !b.TryInject(p) {
		t.Fatal("inject failed")
	}
	for i := 0; i < 2000 && b.Stats().Delivered == 0; i++ {
		b.Step()
	}
	st := b.Stats()
	if st.Delivered != 1 {
		t.Fatalf("packet never delivered despite bounded retries (retransmits %d)", st.Retransmits)
	}
	// Corruption rate 1 burns the whole retry budget, then the ECC
	// assumption delivers the final attempt.
	if st.Retransmits != int64(in.MaxRetries()) {
		t.Errorf("retransmits = %d, want %d", st.Retransmits, in.MaxRetries())
	}
	healthy := NewCryoBus(64, bus77())
	hp := &Packet{ID: 42, Src: 0, Dst: Broadcast, Flits: 1, InjectedAt: 0}
	healthy.TryInject(hp)
	for i := 0; i < 2000 && healthy.Stats().Delivered == 0; i++ {
		healthy.Step()
	}
	if st.MaxLatency <= healthy.Stats().MaxLatency {
		t.Errorf("retransmitted latency %d not worse than healthy %d", st.MaxLatency, healthy.Stats().MaxLatency)
	}
}

func TestGrantStallsDelayButDeliver(t *testing.T) {
	b := NewCryoBus(64, bus77())
	b.AttachInjector(mustInjector(t, fault.Config{Seed: 9, GrantStallRate: 0.5}), "req")
	st := runBusTraffic(b, 4000, 13)
	if st.GrantStalls == 0 {
		t.Error("50% grant-stall rate stalled nothing")
	}
	if st.Delivered == 0 {
		t.Error("grant stalls starved the bus completely")
	}
}

func TestRouterNetApplyFaults(t *testing.T) {
	healthy := NewMesh(64, timing77(1))
	faulted := NewMesh(64, timing77(1))
	faulted.ApplyFaults(mustInjector(t, fault.Config{Seed: 2, LinkFailureRate: 0.2}), "mesh")
	if faulted.ZeroLoadLatency() <= healthy.ZeroLoadLatency() {
		t.Errorf("faulted mesh zero-load %.2f not worse than healthy %.2f",
			faulted.ZeroLoadLatency(), healthy.ZeroLoadLatency())
	}
	// Step's schedule must reach the slow spares' arrival times.
	if faulted.dueMask <= healthy.dueMask {
		t.Errorf("faulted mesh schedule has %d slots, healthy %d", faulted.dueMask+1, healthy.dueMask+1)
	}
	// Traffic still drains: the spare wires are slow, not dead.
	rng := rand.New(rand.NewSource(3))
	var id int64
	injected := 0
	for cyc := 0; cyc < 4000; cyc++ {
		if cyc < 1000 {
			for s := 0; s < 64; s++ {
				if rng.Float64() < 0.01 {
					p := &Packet{ID: id, Src: s, Dst: Uniform{}.Dest(s, 64, rng), Flits: 1, InjectedAt: faulted.Cycle()}
					id++
					if faulted.TryInject(p) {
						injected++
					}
				}
			}
		}
		faulted.Step()
	}
	if got := faulted.Stats().Delivered; got != int64(injected) {
		t.Errorf("faulted mesh delivered %d of %d injected", got, injected)
	}
}

func TestApplyFaultsInactiveIsNoOp(t *testing.T) {
	a := NewMesh(64, timing77(1))
	b := NewMesh(64, timing77(1))
	b.ApplyFaults(nil, "mesh")
	b.ApplyFaults(mustInjector(t, fault.Config{Seed: 4}), "mesh")
	if a.ZeroLoadLatency() != b.ZeroLoadLatency() {
		t.Error("inactive injector changed the mesh")
	}
}
