package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"cryowire/internal/fault"
)

// refStep is the router cycle as it was before Step skipped idle
// routers, cached each arrival's next hop and allocated the switch with
// bitmasks. It is kept verbatim as the reference Step must match cycle
// for cycle: every input port is scanned once per output link and the
// route closure is called for every candidate head.
func (rn *RouterNet) refStep() {
	now := rn.now
	for ri := range rn.routers {
		r := &rn.routers[ri]
		// Ejection first: deliver any head packet destined here. The
		// ejection port is modeled with infinite sink bandwidth per
		// router cycle for each input port.
		for pi := range r.ports {
			pt := &r.ports[pi]
			for pt.n > 0 && pt.front().readyAt <= now && rn.nodeRouter(rn.pkts.at[pt.front().pkt].Dst) == ri {
				rn.deliver(pt.front().pkt, now)
				pt.popFront()
			}
		}
		// Switch allocation: one grant per output link per cycle.
		for li := range r.links {
			if r.outBusy[li] > now {
				continue
			}
			lnk := r.links[li]
			dst := &rn.routers[lnk.to]
			dpt := &dst.ports[lnk.dstPort]
			if dpt.n >= rn.inCap {
				continue // no credit downstream
			}
			// Round-robin over input ports for fairness.
			n := len(r.ports)
			granted := -1
			for k := 0; k < n; k++ {
				pi := (r.rr[li] + k) % n
				pt := &r.ports[pi]
				if pt.n == 0 || pt.front().readyAt > now {
					continue
				}
				p := rn.pkts.at[pt.front().pkt]
				if rn.nodeRouter(p.Dst) == ri {
					continue // ejection handles it
				}
				if rn.route(ri, rn.nodeRouter(p.Dst)) != li {
					continue
				}
				granted = pi
				break
			}
			if granted < 0 {
				continue
			}
			pt := &r.ports[granted]
			a := pt.popFront()
			r.rr[li] = (granted + 1) % n
			flits := rn.pkts.at[a.pkt].Flits
			if flits < 1 {
				flits = 1
			}
			r.outBusy[li] = now + int64(flits)
			rn.energy.RouterTraversals++
			rn.energy.BufferWrites++
			rn.energy.WireMMFlits += float64(lnk.tileHops) * tileMM * float64(flits)
			// The packet becomes visible downstream after the router
			// pipeline and the wire flight time; the buffer slot is
			// held from the send (conservative credit accounting).
			lat := int64(rn.timing.RouterCycles + lnk.wireCycles)
			if lat < 1 {
				lat = 1
			}
			*dpt.pushBack() = arrival{pkt: a.pkt, readyAt: now + lat}
		}
	}
	rn.now++
}

// delivery is one entry of a twin's ordered delivery log. replied
// records whether the hook's re-entrant injection was offered (0 no, 1
// accepted, 2 refused), so a divergent TryInject inside Step shows up
// in the log too.
type delivery struct {
	id, at  int64
	replied int8
}

// twin is one side of an equivalence run: a network and its log.
type twin struct {
	rn  *RouterNet
	log []delivery
}

// replyBit marks hook-injected packets; they are not answered again.
const replyBit = int64(1) << 40

// hook records every delivery into the network's stats and the log,
// and injects into the same network from inside Step, the re-entrant
// path the simulator's hooks are allowed to take: every third request
// is answered with a reply from the delivering router, which Step is
// visiting, and another third is forwarded from the node half the
// network away, a router below the current one for deliveries in the
// upper half and above it for the lower half.
func (tw *twin) hook(p Packet, now int64) {
	tw.rn.Stats().Record(p, now)
	d := delivery{id: p.ID, at: now}
	if p.ID&replyBit == 0 && p.ID%3 != 2 {
		src := p.Dst
		if p.ID%3 == 1 {
			src = (p.Dst + tw.rn.Nodes()/2) % tw.rn.Nodes()
		}
		r := Packet{ID: p.ID | replyBit, Src: src, Dst: p.Src, Flits: 1, InjectedAt: now}
		d.replied = 2
		if tw.rn.TryInject(r) {
			d.replied = 1
		}
	}
	tw.log = append(tw.log, d)
}

// equivNets lists the router networks the fast path is checked on.
func equivNets(t *testing.T) []struct {
	name string
	mk   func() *RouterNet
} {
	inj := mustInjector(t, fault.Config{Seed: 2, LinkFailureRate: 0.2})
	degraded := func() *RouterNet {
		m := NewMesh(64, timing77(1))
		m.ApplyFaults(inj, "mesh")
		return m
	}
	global := func() *RouterNet {
		g := NewHybridCryoBus(bus77(), timing77(1)).global
		g.OnDeliver = nil
		return g
	}
	return []struct {
		name string
		mk   func() *RouterNet
	}{
		{"Mesh-64", func() *RouterNet { return NewMesh(64, timing77(1)) }},
		{"Mesh-256", func() *RouterNet { return NewMesh(256, timing77(1)) }},
		{"CMesh-256", func() *RouterNet { return NewCMesh(256, timing300(3)) }},
		{"FB-64", func() *RouterNet { return NewFlattenedButterfly(64, timing77(1)) }},
		{"FB-256", func() *RouterNet { return NewFlattenedButterfly(256, timing300(1)) }},
		{"Mesh-64-faulted", degraded},
		{"hybrid-global-mesh", global},
	}
}

// TestStepMatchesReference drives Step and refStep on twin networks
// with the same seeded open-loop traffic and compares their whole state
// after every cycle: the ordered delivery log, Stats, Energy, every
// arbiter pointer and output-busy horizon, and every input port's
// occupancy (its full contents every 16th cycle and at the end). It
// also checks Step's schedule every cycle: each input-port head must be
// due at its readyAt, or on the next Step when it is already ready.
// Rates run from far below to far past saturation. Each run drains,
// sits idle for longer than the schedule's horizon so the wheel wraps
// around, then takes a second burst of traffic and drains again.
func TestStepMatchesReference(t *testing.T) {
	patterns := []Pattern{Uniform{}, Transpose{}, Hotspot{}, BitReverse{}, Burst{}}
	rates := []float64{0.001, 0.01, 0.1, 0.6}
	for _, nc := range equivNets(t) {
		for _, pat := range patterns {
			for _, multi := range []bool{false, true} {
				mode := "1-flit"
				if multi {
					mode = "multi-flit"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", nc.name, pat.Name(), mode), func(t *testing.T) {
					t.Parallel()
					delivered := int64(0)
					for _, rate := range rates {
						delivered += runTwins(t, nc.mk, pat, multi, rate)
					}
					if delivered == 0 {
						t.Fatal("nothing delivered")
					}
				})
			}
		}
	}
}

// runTwins runs one (network, pattern, packet mix, rate) point and
// returns the number of packets delivered. A first burst of traffic is
// generated for warmCycles; the twins then step until they are empty,
// idle for twice the schedule's horizon plus one cycle, generate for
// genCycles and drain for drainCycles. Every topology here is
// deadlock-free, so the first drain failing to empty within maxDrain
// cycles fails the test.
func runTwins(t *testing.T, mk func() *RouterNet, pat Pattern, multi bool, rate float64) int64 {
	t.Helper()
	const warmCycles, genCycles, drainCycles, maxDrain = 20, 200, 100, 20000
	fast, ref := &twin{rn: mk()}, &twin{rn: mk()}
	fast.rn.OnDeliver, ref.rn.OnDeliver = fast.hook, ref.hook
	nodes := fast.rn.Nodes()
	rng := rand.New(rand.NewSource(int64(rate * 1e6)))
	burst, bursty := pat.(Burst)
	pending := make([][]Packet, nodes)
	burstOn := make([]bool, nodes)
	var id int64
	waiting := func() bool {
		for _, q := range pending {
			if len(q) > 0 {
				return true
			}
		}
		return fast.rn.queued()
	}
	// cycle generates this cycle's traffic when gen is set, offers the
	// source queues to both twins, steps both once and compares them;
	// last adds the full port-contents comparison.
	cycle := func(gen, last bool) {
		now := fast.rn.Cycle()
		for s := 0; s < nodes && gen; s++ {
			genRate := rate
			if bursty {
				p := burst.onProb()
				if burstOn[s] {
					burstOn[s] = rng.Float64() >= (1-p)/10
				} else {
					burstOn[s] = rng.Float64() < p/10
				}
				genRate = 0
				if burstOn[s] {
					genRate = rate / p
				}
			}
			if rng.Float64() < genRate {
				pk := Packet{ID: id, Src: s, Dst: pat.Dest(s, nodes, rng), Flits: 1, InjectedAt: now}
				id++
				if multi && rng.Float64() < 0.3 {
					pk.Flits = 5
				}
				pending[s] = append(pending[s], pk)
			}
		}
		for s := range pending {
			for len(pending[s]) > 0 {
				okF, okR := fast.rn.TryInject(pending[s][0]), ref.rn.TryInject(pending[s][0])
				if okF != okR {
					t.Fatalf("rate %g cycle %d: TryInject at node %d = %v, reference %v", rate, now, s, okF, okR)
				}
				if !okF {
					break
				}
				pending[s] = pending[s][1:]
			}
		}
		fast.rn.Step()
		ref.rn.refStep()
		err := compareTwins(fast, ref, last || now%16 == 0)
		if err == nil {
			err = checkSchedule(fast.rn)
		}
		if err != nil {
			t.Fatalf("rate %g cycle %d: %v", rate, now, err)
		}
	}
	for i := 0; i < warmCycles; i++ {
		cycle(true, false)
	}
	for i := 0; waiting(); i++ {
		if i == maxDrain {
			t.Fatalf("rate %g: still holding packets after %d drain cycles", rate, maxDrain)
		}
		cycle(false, false)
	}
	idle := 2*len(fast.rn.due)/fast.rn.dueWords + 1
	for i := 0; i < idle; i++ {
		cycle(false, i == idle-1)
	}
	for i := 0; i < genCycles; i++ {
		cycle(true, false)
	}
	for i := 0; i < drainCycles; i++ {
		cycle(false, i == drainCycles-1)
	}
	return fast.rn.Stats().Delivered
}

// compareTwins reports the first difference between the two sides;
// contents adds a packet-by-packet comparison of every input port.
func compareTwins(fast, ref *twin, contents bool) error {
	a, b := fast.rn, ref.rn
	if a.now != b.now {
		return fmt.Errorf("cycle counter %d, reference %d", a.now, b.now)
	}
	if len(fast.log) != len(ref.log) {
		return fmt.Errorf("%d deliveries, reference %d", len(fast.log), len(ref.log))
	}
	for i := range fast.log {
		if fast.log[i] != ref.log[i] {
			return fmt.Errorf("delivery %d is %+v, reference %+v", i, fast.log[i], ref.log[i])
		}
	}
	if a.stats != b.stats {
		return fmt.Errorf("stats %+v, reference %+v", a.stats, b.stats)
	}
	if a.energy != b.energy {
		return fmt.Errorf("energy %+v, reference %+v", a.energy, b.energy)
	}
	for ri := range a.routers {
		ra, rb := &a.routers[ri], &b.routers[ri]
		for li := range ra.links {
			if ra.rr[li] != rb.rr[li] || ra.outBusy[li] != rb.outBusy[li] {
				return fmt.Errorf("router %d link %d: rr %d busy %d, reference rr %d busy %d",
					ri, li, ra.rr[li], ra.outBusy[li], rb.rr[li], rb.outBusy[li])
			}
		}
		for pi := range ra.ports {
			pa, pb := &ra.ports[pi], &rb.ports[pi]
			if pa.n != pb.n {
				return fmt.Errorf("router %d port %d: occupancy %d, reference %d", ri, pi, pa.n, pb.n)
			}
			for k := 0; contents && k < pa.n; k++ {
				ea, eb := pa.at(k), pb.at(k)
				ida, idb := a.pkts.at[ea.pkt].ID, b.pkts.at[eb.pkt].ID
				if ida != idb || ea.readyAt != eb.readyAt {
					return fmt.Errorf("router %d port %d entry %d: packet %d ready %d, reference packet %d ready %d",
						ri, pi, k, ida, ea.readyAt, idb, eb.readyAt)
				}
			}
		}
	}
	return nil
}

// checkSchedule reports the first input-port head Step's schedule would
// miss: a head must be due at max(readyAt, now), so every router holding
// a ready head is visited by the next Step and every other head's router
// is visited the cycle it becomes ready. Entries beyond these (stale
// ones) are allowed; they cost a no-op visit.
func checkSchedule(rn *RouterNet) error {
	for ri := range rn.routers {
		for pi := range rn.routers[ri].ports {
			pt := &rn.routers[ri].ports[pi]
			if pt.n == 0 {
				continue
			}
			at := max(pt.front().readyAt, rn.now)
			if at-rn.now > rn.dueMask {
				return fmt.Errorf("router %d port %d: head ready at %d, beyond the %d-slot wheel at cycle %d", ri, pi, at, rn.dueMask+1, rn.now)
			}
			if rn.due[int(at&rn.dueMask)*rn.dueWords+ri>>6]&(1<<uint(ri&63)) == 0 {
				return fmt.Errorf("router %d port %d: head ready at %d is not due at cycle %d", ri, pi, pt.front().readyAt, at)
			}
		}
	}
	return nil
}

// refZeroLoad is computeZeroLoad as it was: a walk along every ordered
// router pair's path, summing the float average pair by pair.
func (rn *RouterNet) refZeroLoad() float64 {
	total := 0.0
	pairs := 0
	nr := len(rn.routers)
	for s := 0; s < nr; s++ {
		for d := 0; d < nr; d++ {
			if s == d {
				continue
			}
			cyc := 0
			cur := s
			for cur != d {
				li := rn.nextHop[cur*nr+d]
				lnk := rn.routers[cur].links[li]
				c := rn.timing.RouterCycles + lnk.wireCycles
				if c < 1 {
					c = 1
				}
				cyc += c
				cur = lnk.to
			}
			total += float64(cyc + 1) // +1 ejection
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}

// TestZeroLoadMatchesReference: the memoized per-destination zero-load
// latency must equal the all-pairs walk exactly, not within a
// tolerance, on every router topology and size, on the hybrid's global
// mesh and on fault-degraded meshes.
func TestZeroLoadMatchesReference(t *testing.T) {
	type netCase struct {
		name string
		rn   *RouterNet
	}
	var cases []netCase
	for _, n := range []int{16, 64, 256} {
		for _, tm := range []struct {
			name string
			t    Timing
		}{{"77K-1c", timing77(1)}, {"300K-3c", timing300(3)}} {
			cases = append(cases,
				netCase{fmt.Sprintf("Mesh-%d/%s", n, tm.name), NewMesh(n, tm.t)},
				netCase{fmt.Sprintf("CMesh-%d/%s", n, tm.name), NewCMesh(n, tm.t)},
				netCase{fmt.Sprintf("FB-%d/%s", n, tm.name), NewFlattenedButterfly(n, tm.t)},
			)
		}
	}
	cases = append(cases, netCase{"hybrid-global-mesh", NewHybridCryoBus(bus77(), timing77(1)).global})
	for _, seed := range []int64{2, 3, 4} {
		m := NewMesh(256, timing77(1))
		m.ApplyFaults(mustInjector(t, fault.Config{Seed: seed, LinkFailureRate: 0.2}), "mesh")
		cases = append(cases, netCase{fmt.Sprintf("Mesh-256-faulted-seed%d", seed), m})
	}
	for _, c := range cases {
		if got, want := c.rn.ZeroLoadLatency(), c.rn.refZeroLoad(); got != want {
			t.Errorf("%s: zero-load %v, all-pairs reference %v", c.name, got, want)
		}
	}
	healthy := NewMesh(256, timing77(1)).ZeroLoadLatency()
	if faulted := cases[len(cases)-1].rn.ZeroLoadLatency(); faulted <= healthy {
		t.Errorf("faulted Mesh-256 zero-load %v not above healthy %v", faulted, healthy)
	}
}
