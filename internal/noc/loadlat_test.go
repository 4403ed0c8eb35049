package noc

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// refMeasureRate is measureRate as it was before source queues held
// packets by value and rates could be abandoned mid-run: every
// generated packet is allocated at once and queued by pointer.
func refMeasureRate(n Network, rate float64, cfg SweepConfig) SweepPoint {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(rate*1e7)))
	nodes := n.Nodes()
	pending := make([][]*Packet, nodes)
	burstOn := make([]bool, nodes)
	burst, bursty := cfg.Pattern.(Burst)
	satLat := SaturationLatency(n)

	base := n.Stats().Delivered
	baseLat := n.Stats().TotalLatency
	total := cfg.WarmupCycles + cfg.MeasureCycles
	var id int64
	for cyc := 0; cyc < total; cyc++ {
		if cyc == cfg.WarmupCycles {
			base = n.Stats().Delivered
			baseLat = n.Stats().TotalLatency
		}
		now := n.Cycle()
		for s := 0; s < nodes; s++ {
			genRate := rate
			if bursty {
				p := burst.onProb()
				if burstOn[s] {
					if rng.Float64() < (1-p)/10 {
						burstOn[s] = false
					}
				} else if rng.Float64() < p/10 {
					burstOn[s] = true
				}
				if !burstOn[s] {
					genRate = 0
				} else {
					genRate = rate / p
				}
			}
			if genRate > 0 && rng.Float64() < genRate {
				pk := &Packet{ID: id, Src: s, Flits: 1, InjectedAt: now}
				id++
				pk.Dst = cfg.Pattern.Dest(s, nodes, rng)
				if cfg.DataFlits > 1 && rng.Float64() < cfg.DataFraction {
					pk.Flits = cfg.DataFlits
				}
				pending[s] = append(pending[s], pk)
			}
			for len(pending[s]) > 0 && n.TryInject(pending[s][0]) {
				pending[s] = pending[s][1:]
			}
			if len(pending[s]) > 512 {
				return SweepPoint{InjectionRate: rate, AvgLatency: satLat, Saturated: true}
			}
		}
		n.Step()
	}
	st := n.Stats()
	delivered := st.Delivered - base
	if delivered == 0 {
		return SweepPoint{InjectionRate: rate, AvgLatency: satLat, Saturated: true}
	}
	avg := float64(st.TotalLatency-baseLat) / float64(delivered)
	sat := avg >= satLat
	offered := rate * float64(nodes) * float64(cfg.MeasureCycles)
	if offered > 100 && float64(delivered) < 0.6*offered {
		sat = true
	}
	return SweepPoint{InjectionRate: rate, AvgLatency: avg, Saturated: sat}
}

// refWalk is the serial walk as it was: one fresh network per rate, in
// order, stopping after the first saturated rate.
func refWalk(mk func() Network, rates []float64, cfg SweepConfig) []SweepPoint {
	cfg.defaults()
	var out []SweepPoint
	for _, rate := range rates {
		p := refMeasureRate(mk(), rate, cfg)
		out = append(out, p)
		if p.Saturated {
			break
		}
	}
	return out
}

// walkNets are the networks the walk tests run: router, bus,
// interleaved-bus and composite designs.
func walkNets() []struct {
	name string
	mk   func() Network
} {
	return []struct {
		name string
		mk   func() Network
	}{
		{"Mesh-64", func() Network { return NewMesh(64, timing77(1)) }},
		{"Mesh-256", func() Network { return NewMesh(256, timing77(1)) }},
		{"CryoBus", func() Network { return NewCryoBus(64, bus77()) }},
		{"CryoBus-2-way", func() Network {
			return NewInterleavedBus(2, func() *Bus { return NewCryoBus(64, bus77()) })
		}},
		{"Hybrid-256", func() Network { return NewHybridCryoBus(bus77(), timing77(1)) }},
	}
}

// walkCfg is a short-rung sweep: long enough for most networks to
// saturate somewhere on the ladder.
func walkCfg(pat Pattern, data bool) SweepConfig {
	cfg := SweepConfig{Pattern: pat, Seed: 3, WarmupCycles: 60, MeasureCycles: 240}
	if data {
		cfg.DataFlits, cfg.DataFraction = 4, 0.3
	}
	return cfg
}

// TestWalkMatchesSerial: SaturationRate and LoadLatency return the old
// serial walk's result at every worker count, on every network shape,
// under uniform, transpose and bursty traffic, with and without data
// flits. CryoBus, the cheapest walk, runs every combination; the other
// networks run a spread of them, and Mesh-256, the costliest, one.
func TestWalkMatchesSerial(t *testing.T) {
	type combo struct {
		pat  Pattern
		data bool
	}
	every := []combo{{Uniform{}, false}, {Uniform{}, true}, {Transpose{}, false}, {Transpose{}, true}, {Burst{}, false}, {Burst{}, true}}
	spread := []combo{{Uniform{}, false}, {Transpose{}, true}, {Burst{}, false}}
	combos := map[string][]combo{
		"CryoBus":       every,
		"CryoBus-2-way": spread,
		"Mesh-64":       spread,
		"Hybrid-256":    spread,
		"Mesh-256":      {{Transpose{}, true}},
	}
	ladder := saturationLadder()
	for _, nc := range walkNets() {
		for _, c := range combos[nc.name] {
			t.Run(fmt.Sprintf("%s/%s/data=%v", nc.name, c.pat.Name(), c.data), func(t *testing.T) {
				t.Parallel()
				cfg := walkCfg(c.pat, c.data)
				// A walk that never saturates measures the whole ladder
				// and reports its last rate.
				want := refWalk(nc.mk, ladder, cfg)
				wantRate := want[len(want)-1].InjectionRate
				for _, workers := range []int{1, 2, 3, 8} {
					cfg.Workers = workers
					if got := SaturationRate(nc.mk, cfg); got != wantRate {
						t.Errorf("workers=%d: SaturationRate %v, serial %v", workers, got, wantRate)
					}
					cfg.Rates = ladder
					got := LoadLatency(nc.mk, cfg)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("workers=%d: LoadLatency\n%v\nserial\n%v", workers, got, want)
					}
				}
			})
		}
	}
}

// TestWalkStopsEarly: no rung starts once a lower rung has saturated,
// so a walk builds at most (first saturated index + workers) networks.
func TestWalkStopsEarly(t *testing.T) {
	for _, nc := range walkNets() {
		if nc.name == "Mesh-256" || nc.name == "Hybrid-256" {
			continue
		}
		cfg := walkCfg(Transpose{}, false)
		ref := refWalk(nc.mk, saturationLadder(), cfg)
		if !ref[len(ref)-1].Saturated {
			t.Fatalf("%s never saturates under transpose traffic", nc.name)
		}
		firstSat := len(ref) - 1
		for _, workers := range []int{1, 2, 3, 8} {
			var built atomic.Int64
			cfg.Workers = workers
			SaturationRate(func() Network { built.Add(1); return nc.mk() }, cfg)
			if n := built.Load(); n > int64(firstSat+workers) {
				t.Errorf("%s workers=%d: built %d networks, first saturated rung is %d", nc.name, workers, n, firstSat)
			}
		}
	}
}

// TestWalkCancel: a context canceled mid-walk stops the walk, leaves
// the context's error set and keeps only real measurements. The cancel
// fires as the kth network is built, so serially the walk keeps rungs
// 0..k-2 exactly; in parallel the kept points must be a prefix of the
// serial walk and the saturation answer one of its unsaturated rates.
func TestWalkCancel(t *testing.T) {
	const k = 5
	ladder := saturationLadder()
	mkBus := func() Network { return NewCryoBus(64, bus77()) }
	cfg := walkCfg(Uniform{}, false)
	want := refWalk(mkBus, ladder, cfg)
	if len(want) <= k {
		t.Fatalf("CryoBus saturates at rung %d; the test cancels at rung %d", len(want)-1, k)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, sat := range []bool{true, false} {
			ctx, cancel := context.WithCancel(context.Background())
			var built atomic.Int64
			mk := func() Network {
				if built.Add(1) == k {
					cancel()
				}
				return mkBus()
			}
			c := cfg
			c.Workers, c.Ctx, c.Rates = workers, ctx, ladder
			var got []SweepPoint
			if sat {
				if r := SaturationRate(mk, c); r > 0 {
					got = []SweepPoint{{InjectionRate: r}}
				}
			} else {
				got = LoadLatency(mk, c)
			}
			if ctx.Err() == nil {
				t.Fatalf("workers=%d: context not canceled", workers)
			}
			switch {
			case workers == 1 && len(got) != k-1 && !sat:
				t.Errorf("serial canceled LoadLatency kept %d points, want %d", len(got), k-1)
			case workers == 1 && sat && (len(got) == 0 || got[0].InjectionRate != ladder[k-2]):
				t.Errorf("serial canceled SaturationRate returned %v, want rung %d's %v", got, k-2, ladder[k-2])
			case sat && len(got) > 0:
				measured := false
				for _, p := range want[:len(want)-1] {
					measured = measured || p.InjectionRate == got[0].InjectionRate
				}
				if !measured {
					t.Errorf("workers=%d: canceled SaturationRate returned %v, not an unsaturated rung's rate", workers, got[0].InjectionRate)
				}
			case !sat && fmt.Sprint(got) != fmt.Sprint(want[:len(got)]):
				t.Errorf("workers=%d: canceled LoadLatency kept\n%v\nnot a prefix of the serial walk\n%v", workers, got, want)
			}
			cancel()
		}
	}
}

// BenchmarkSaturationRate times whole saturation walks at the quick
// registry's run lengths, serially and on every CPU.
func BenchmarkSaturationRate(b *testing.B) {
	for _, nc := range []struct {
		name string
		mk   func() Network
	}{
		{"Mesh-256", func() Network { return NewMesh(256, timing77(1)) }},
		{"CryoBus-64", func() Network { return NewCryoBus(64, bus77()) }},
		{"Hybrid-256", func() Network { return NewHybridCryoBus(bus77(), timing77(1)) }},
	} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%s/workers=%d", nc.name, workers), func(b *testing.B) {
				cfg := SweepConfig{Pattern: Uniform{}, Seed: 1, WarmupCycles: 600, MeasureCycles: 2000, Workers: workers}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchRate = SaturationRate(nc.mk, cfg)
				}
			})
		}
	}
}

// benchRate keeps BenchmarkSaturationRate's result live.
var benchRate float64
