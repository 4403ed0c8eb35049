package noc

import (
	"context"
	"fmt"
	"math"
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

// queued is a generated packet waiting in its source queue. It stays a
// 16-byte value until it reaches the queue head: a saturated rung can
// queue tens of thousands of packets, and the walk runs rungs side by
// side.
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
// The queue is a ring (len(buf) is zero or a power of two); head is the
// Packet built for the queue front, kept until TryInject accepts it.
type sourceState struct {
	buf     []queued
	first   int // index of the queue front in buf
	n       int // queued packets
	head    *Packet
	burstOn bool
}

func (st *sourceState) push(q queued) {
	if st.n == len(st.buf) {
		st.grow()
	}
	st.buf[(st.first+st.n)&(len(st.buf)-1)] = q
	st.n++
}

// grow doubles the ring (minimum 4 slots), unwrapping entries to the
// front so the mask arithmetic stays valid.
func (st *sourceState) grow() {
	nb := make([]queued, max(4, 2*len(st.buf)))
	for i := 0; i < st.n; i++ {
		nb[i] = st.buf[(st.first+i)&(len(st.buf)-1)]
	}
	st.buf, st.first = nb, 0
}

// front returns the Packet for the queue front, building it on first
// use; valid only when n > 0. start is the rung's first cycle.
func (st *sourceState) front(src int, start int64, cfg *SweepConfig) *Packet {
	if st.head == nil {
		q := st.buf[st.first]
		flits := 1
		if q.data {
			flits = cfg.DataFlits
		}
		st.head = &Packet{ID: q.id, Src: src, Dst: int(q.dst), Flits: flits, InjectedAt: start + int64(q.at)}
	}
	return st.head
}

func (st *sourceState) pop() {
	st.head = nil
	st.first = (st.first + 1) & (len(st.buf) - 1)
	st.n--
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
	// The Bernoulli draw, one per node per cycle, reads the stream
	// directly; the rarer draws go through rng, on the same sequence.
	src := newStream(cfg.Seed + int64(rate*1e7))
	rng := rand.New(src)
	nodes := n.Nodes()
	total := cfg.WarmupCycles + cfg.MeasureCycles
	if nodes > maxSweepNodes || total > maxSweepCycles {
		panic(fmt.Sprintf("noc: sweeps support up to %d nodes and %d cycles, got %d and %d", maxSweepNodes, maxSweepCycles, nodes, total))
	}
	srcs := make([]sourceState, nodes)
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
		for s := 0; s < nodes; s++ {
			st := &srcs[s]
			// Generation: Bernoulli at the offered rate; bursty sources
			// concentrate the same offered load into on-periods.
			genRate := rate
			if bursty {
				p := burst.onProb()
				// Two-state Markov chain with mean on-fraction p and
				// geometric dwell times.
				if st.burstOn {
					if rng.Float64() < (1-p)/10 {
						st.burstOn = false
					}
				} else if rng.Float64() < p/10 {
					st.burstOn = true
				}
				if !st.burstOn {
					genRate = 0
				} else {
					genRate = rate / p
				}
			}
			if genRate > 0 {
				f, ok := src.float64Fast()
				if !ok {
					f = src.Float64()
				}
				if f < genRate {
					q := queued{id: id, at: int32(now - start), dst: uint16(cfg.Pattern.Dest(s, nodes, rng))}
					id++
					q.data = cfg.DataFlits > 1 && rng.Float64() < cfg.DataFraction
					st.push(q)
				}
			}
			// Drain the source queue into the network.
			for st.n > 0 && n.TryInject(st.front(s, start, &cfg)) {
				st.pop()
			}
			// A source queue exploding past any reasonable bound is
			// saturation; bail early to keep sweeps fast.
			if st.n > 512 {
				return saturated, true
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
