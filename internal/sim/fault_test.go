package sim

import (
	"errors"
	"testing"

	"cryowire/internal/fault"
	"cryowire/internal/noc"
	"cryowire/internal/workload"
)

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	p, err := workload.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(NewFactory().CHPCryoBus(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestZeroRateFaultConfigBitForBit(t *testing.T) {
	// An all-zero-rate fault config must leave the simulation result
	// bit-for-bit identical to a run with no fault config at all.
	cfg := testCfg()
	healthy, err := newSystem(t, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = &fault.Config{Seed: 123}
	injected, err := newSystem(t, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if healthy != injected {
		t.Errorf("zero-rate fault run diverged:\nhealthy  %+v\ninjected %+v", healthy, injected)
	}
}

func TestFaultedRunCompletesDegraded(t *testing.T) {
	cfg := testCfg()
	healthy, err := newSystem(t, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = &fault.Config{Seed: 5, LinkFailureRate: 0.10, FlitCorruptionRate: 0.05}
	degraded, err := newSystem(t, cfg).Run()
	if err != nil {
		t.Fatalf("faulted run failed instead of degrading: %v", err)
	}
	if degraded.Instructions <= 0 || degraded.IPC <= 0 {
		t.Fatalf("faulted run made no progress: %+v", degraded)
	}
	if degraded.Retransmits == 0 {
		t.Error("5% flit corruption produced no retransmits")
	}
	if degraded.DegradedBroadcastCycles <= healthy.DegradedBroadcastCycles {
		t.Errorf("broadcast span %v cycles not degraded beyond healthy %v",
			degraded.DegradedBroadcastCycles, healthy.DegradedBroadcastCycles)
	}
	if degraded.IPC >= healthy.IPC {
		t.Errorf("faulted IPC %v not below healthy %v", degraded.IPC, healthy.IPC)
	}
}

func TestHealthyCryoBusReportsOneCycleBroadcast(t *testing.T) {
	res, err := newSystem(t, testCfg()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedBroadcastCycles != 1 {
		t.Errorf("healthy CryoBus broadcast = %v cycles, want the famous 1", res.DegradedBroadcastCycles)
	}
}

func TestInvalidFaultConfigRejected(t *testing.T) {
	cfg := testCfg()
	cfg.Fault = &fault.Config{LinkFailureRate: 1.5}
	p, err := workload.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(NewFactory().CHPCryoBus(), p, cfg); err == nil {
		t.Error("invalid fault config accepted")
	}
}

func TestWatchdogNoProgress(t *testing.T) {
	cfg := testCfg()
	cfg.Watchdog = Watchdog{CheckInterval: 100, NoProgressCycles: 500}
	s := newSystem(t, cfg)
	// Wedge every core on a transaction that will never complete.
	stuck := &txn{lockLine: -1}
	for i := range s.cores {
		s.cores[i].blockedOn = stuck
		s.resync(i, false)
	}
	_, err := s.Run()
	var serr *StallError
	if !errors.As(err, &serr) {
		t.Fatalf("wedged run returned %v, want *StallError", err)
	}
	if serr.Cycle <= 0 || serr.Reason == "" {
		t.Errorf("diagnosis missing cycle stamp or reason: %+v", serr)
	}
}

func TestWatchdogPacketAge(t *testing.T) {
	cfg := testCfg()
	cfg.Watchdog = Watchdog{CheckInterval: 100, MaxPacketAge: 50}
	s := newSystem(t, cfg)
	// A packet that was injected at cycle 0 and never delivers.
	s.takeSlot(noc.Packet{ID: 999, InjectedAt: 0}, &txn{}, false)
	_, err := s.Run()
	var serr *StallError
	if !errors.As(err, &serr) {
		t.Fatalf("aged packet returned %v, want *StallError", err)
	}
	if serr.OldestPacketAge <= 50 {
		t.Errorf("diagnosis age = %d, want > ceiling 50", serr.OldestPacketAge)
	}
}

func TestWatchdogCreditLeak(t *testing.T) {
	cfg := testCfg()
	cfg.Watchdog = Watchdog{CheckInterval: 100}
	s := newSystem(t, cfg)
	// A leaked credit: an outstanding token with no live transaction.
	s.cores[0].outstanding++
	_, err := s.Run()
	var serr *StallError
	if !errors.As(err, &serr) {
		t.Fatalf("leaked credit returned %v, want *StallError", err)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	cfg := testCfg()
	cfg.Watchdog = Watchdog{Disabled: true, CheckInterval: 100}
	s := newSystem(t, cfg)
	s.cores[0].outstanding++ // would trip the credit-leak check
	if _, err := s.Run(); err != nil {
		t.Errorf("disabled watchdog still fired: %v", err)
	}
}

func TestUnknownNetKindIsError(t *testing.T) {
	p, err := workload.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	d := NewFactory().CHPCryoBus()
	d.Net = NetKind(99)
	if _, err := New(d, p, testCfg()); err == nil {
		t.Error("unknown net kind accepted")
	}
}

func TestNonSquareMeshIsError(t *testing.T) {
	p, err := workload.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	d := NewFactory().CHPMesh()
	d.Cores = 60
	if _, err := New(d, p, testCfg()); err == nil {
		t.Error("non-square mesh accepted")
	}
}

// TestFaultedInterleavedBusCountsRetransmits: on a faulted cryobus-2way
// system, Result.Retransmits is the sum over both networks of every
// stripe's NACK retransmits, so a striped bus must pass its stripes'
// counts up through Stats.
func TestFaultedInterleavedBusCountsRetransmits(t *testing.T) {
	p, err := workload.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.Fault = &fault.Config{Seed: 5, FlitCorruptionRate: 0.05}
	s, err := New(With2WayInterleaving(NewFactory().CryoSPCryoBus()), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for name, n := range map[string]noc.Network{"request": s.net, "data": s.dataNet} {
		for i, b := range n.(*noc.InterleavedBus).Stripes() {
			if b.Stats().Retransmits == 0 {
				t.Errorf("%s network stripe %d retransmitted nothing under 5%% corruption", name, i)
			}
			want += b.Stats().Retransmits
		}
	}
	if res.Retransmits != want {
		t.Errorf("result counts %d retransmits, the stripes %d", res.Retransmits, want)
	}
}
