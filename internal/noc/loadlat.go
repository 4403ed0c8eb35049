package noc

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"

	"cryowire/internal/par"
)

// SweepPoint is one measurement of a load-latency curve.
type SweepPoint struct {
	InjectionRate float64 // packets per node per cycle
	AvgLatency    float64 // cycles
	Saturated     bool
}

// SweepConfig controls a load-latency sweep.
type SweepConfig struct {
	Pattern Pattern
	Rates   []float64
	// WarmupCycles and MeasureCycles default to 2000/8000.
	WarmupCycles, MeasureCycles int
	Seed                        int64
	// DataFlits, when >1, marks a fraction of packets as multi-flit
	// data transfers (0 keeps all packets single-flit control).
	DataFlits    int
	DataFraction float64
	// Workers is the number of rates measured at once; 0 or 1 walks
	// them one by one. Rates start in order, and no rate above a
	// saturated one starts. Each rate seeds its own generator from
	// (Seed, rate), so every worker count returns the serial result.
	Workers int
	// Ctx, when non-nil, cancels the sweep: no rate starts once it is
	// done, and a rate in progress stops at its next poll and is
	// dropped. LoadLatency then returns the points measured so far and
	// SaturationRate the last rate measured. Callers that care must
	// check Ctx.Err() afterwards.
	Ctx context.Context
}

// ctx returns the sweep's cancellation context, never nil.
func (c SweepConfig) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

func (c *SweepConfig) defaults() {
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 2000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 8000
	}
	if c.Pattern == nil {
		c.Pattern = Uniform{}
	}
}

// queued is a generated packet waiting in its source queue, a 16-byte
// value until it is offered to the network: a saturated rung can queue
// tens of thousands of packets, and the walk runs rungs side by side.
type queued struct {
	id   int64
	at   int32 // generation cycle, counted from the rung's first cycle
	dst  uint16
	data bool // a DataFlits-long data transfer, else a 1-flit packet
}

// Limits of the queued encoding.
const (
	maxSweepNodes  = math.MaxUint16 + 1
	maxSweepCycles = math.MaxInt32
)

// sourceState is the open-loop per-node generator with a source queue:
// generated packets wait here when the network exerts back-pressure, so
// saturation shows up as unbounded latency rather than lost packets.
type sourceState struct {
	q       ring[queued]
	burstOn bool
}

// pollEvery is how many cycles a rate runs between cancellation polls.
const pollEvery = 64

// LoadLatency sweeps injection rates over fresh networks built by mk
// and returns one point per rate, up to and including the first rate
// that saturates (standard BookSim methodology: latency beyond a large
// multiple of zero-load, or throughput collapse). cfg.Workers rates are
// measured at once; the result is the serial sweep's at any count.
func LoadLatency(mk func() Network, cfg SweepConfig) []SweepPoint {
	cfg.defaults()
	return walk(mk, cfg.Rates, cfg)
}

// walk measures rates in order on a pool of cfg.Workers, each on a
// fresh network, and returns the measured prefix up to and including
// the first saturated rate. Rates start in order, so when rate s
// saturates every lower rate has started and is left to finish; a rate
// above s does not start (its task returns before building a network),
// and one already running stops at its next poll and is dropped. The
// result therefore equals the serial walk's. When cfg's context is
// canceled, every running rate stops at its next poll and the prefix
// measured so far is returned.
func walk(mk func() Network, rates []float64, cfg SweepConfig) []SweepPoint {
	ctx := cfg.ctx()
	var firstSat atomic.Int64 // lowest saturated index so far
	firstSat.Store(int64(len(rates)))
	pts := make([]SweepPoint, len(rates))
	measured := make([]bool, len(rates))
	// A canceled walk returns its measured prefix; the caller checks
	// cfg.Ctx.Err() itself.
	_ = par.ForCtx(ctx, len(rates), cfg.Workers, func(i int) {
		stop := func() bool { return ctx.Err() != nil || firstSat.Load() < int64(i) }
		if stop() {
			return
		}
		p, ok := measureRate(mk(), rates[i], cfg, stop)
		if !ok {
			return
		}
		pts[i], measured[i] = p, true
		// Lower firstSat to i unless a lower rate already saturated.
		for p.Saturated {
			cur := firstSat.Load()
			if int64(i) >= cur || firstSat.CompareAndSwap(cur, int64(i)) {
				break
			}
		}
	})
	for i := range pts {
		if !measured[i] {
			return pts[:i]
		}
		if pts[i].Saturated {
			return pts[:i+1]
		}
	}
	return pts
}

// measureRate runs one injection rate to steady state. It calls stop
// every pollEvery cycles and, once stop reports true, abandons the rate
// and returns ok == false.
func measureRate(n Network, rate float64, cfg SweepConfig, stop func() bool) (pt SweepPoint, ok bool) {
	// The Bernoulli draws, one per node per cycle, read the stream
	// directly; the rarer draws go through rng, on the same sequence.
	src := newStream(cfg.Seed + int64(rate*1e7))
	rng := rand.New(src)
	nodes := n.Nodes()
	total := cfg.WarmupCycles + cfg.MeasureCycles
	if nodes > maxSweepNodes || total > maxSweepCycles {
		panic(fmt.Sprintf("noc: sweeps support up to %d nodes and %d cycles, got %d and %d", maxSweepNodes, maxSweepCycles, nodes, total))
	}
	srcs := make([]sourceState, nodes)
	// waiting has bit s set while node s's source queue is non-empty.
	waiting := make([]uint64, maskWords(nodes))
	miss := missFrom(rate)
	burst, bursty := cfg.Pattern.(Burst)
	satLat := SaturationLatency(n)
	saturated := SweepPoint{InjectionRate: rate, AvgLatency: satLat, Saturated: true}

	base := n.Stats().Delivered
	baseLat := n.Stats().TotalLatency
	start := n.Cycle()
	var id int64
	for cyc := 0; cyc < total; cyc++ {
		if cyc%pollEvery == 0 && stop() {
			return SweepPoint{}, false
		}
		if cyc == cfg.WarmupCycles {
			base = n.Stats().Delivered
			baseLat = n.Stats().TotalLatency
		}
		now := n.Cycle()
		// Generation draws for every node in node order, then every
		// non-empty source queue drains in node order. This is the order
		// of a loop that generates and drains node by node: the draws
		// never read the network and the drains never draw.
		gen := func(s int) {
			q := queued{id: id, at: int32(now - start), dst: uint16(cfg.Pattern.Dest(s, nodes, rng))}
			id++
			q.data = cfg.DataFlits > 1 && rng.Float64() < cfg.DataFraction
			*srcs[s].q.pushBack() = q
			waiting[s>>6] |= 1 << (s & 63)
		}
		switch {
		case bursty:
			// Bursty sources concentrate the offered load into
			// on-periods: a two-state Markov chain with mean on-fraction
			// p and geometric dwell times.
			p := burst.onProb()
			for s := 0; s < nodes; s++ {
				st := &srcs[s]
				if st.burstOn {
					if rng.Float64() < (1-p)/10 {
						st.burstOn = false
					}
				} else if rng.Float64() < p/10 {
					st.burstOn = true
				}
				if genRate := rate / p; st.burstOn && genRate > 0 && src.bernoulli(genRate) {
					gen(s)
				}
			}
		case rate > 0:
			// Every node makes one Bernoulli draw at the offered rate.
			// skipMisses consumes the runs of draws that miss at a
			// compare each; the others take the general path.
			for s := 0; s < nodes; s++ {
				if s += src.skipMisses(nodes-s, miss); s == nodes {
					break
				}
				if src.bernoulli(rate) {
					gen(s)
				}
			}
		}
		// Drain the source queues into the network, building each
		// packet from its queued entry as it is offered.
		for w, word := range waiting {
			for ; word != 0; word &= word - 1 {
				s := w<<6 | bits.TrailingZeros64(word)
				st := &srcs[s]
				for st.q.n > 0 {
					q := st.q.front()
					p := Packet{ID: q.id, Src: s, Dst: int(q.dst), Flits: 1, InjectedAt: start + int64(q.at)}
					if q.data {
						p.Flits = cfg.DataFlits
					}
					if !n.TryInject(p) {
						break
					}
					st.q.popFront()
				}
				if st.q.n == 0 {
					waiting[w] &^= 1 << (s & 63)
				}
				// A source queue exploding past any reasonable bound is
				// saturation; bail early to keep sweeps fast.
				if st.q.n > 512 {
					return saturated, true
				}
			}
		}
		n.Step()
	}
	st := n.Stats()
	delivered := st.Delivered - base
	if delivered == 0 {
		return saturated, true
	}
	avg := float64(st.TotalLatency-baseLat) / float64(delivered)
	sat := avg >= satLat
	// Throughput collapse: deliveries far below the offered load.
	offered := rate * float64(nodes) * float64(cfg.MeasureCycles)
	if offered > 100 && float64(delivered) < 0.6*offered {
		sat = true
	}
	return SweepPoint{InjectionRate: rate, AvgLatency: avg, Saturated: sat}, true
}

// saturationLadder is the geometric rate grid SaturationRate walks.
func saturationLadder() []float64 {
	var out []float64
	for rate := 0.0005; rate < 0.6; rate *= 1.35 {
		out = append(out, rate)
	}
	return out
}

// SaturationRate estimates the injection rate at which the network
// saturates by walking a geometric rate grid — the "bandwidth limit"
// quoted for Figs 18/21/25/26. It returns the first saturated rate, or
// the last rate measured when none saturates (or when cfg.Ctx cancels
// the walk; 0 if nothing was measured). The walk is LoadLatency's, so
// cfg.Workers rungs run at once and the answer is the serial walk's.
func SaturationRate(mk func() Network, cfg SweepConfig) float64 {
	cfg.defaults()
	pts := walk(mk, saturationLadder(), cfg)
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].InjectionRate
}
