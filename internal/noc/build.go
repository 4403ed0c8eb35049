package noc

import (
	"fmt"

	"cryowire/internal/fault"
)

// Error-returning topology constructors. The New* constructors panic on
// impossible shapes, which is fine for the static, known-good call
// sites inside experiments and tests; anything reachable from the
// public cryowire API (user-supplied node counts) must use these
// Build* variants instead: they validate first and only then delegate
// to the (now guaranteed panic-free) New* builder.

// validSquare checks that nodes lays out on a square grid.
func validSquare(kind string, nodes int) error {
	if nodes <= 0 {
		return fmt.Errorf("noc: %s needs a positive node count, got %d", kind, nodes)
	}
	side := gridSide(nodes)
	if side*side != nodes {
		return fmt.Errorf("noc: %s needs a square node count, got %d", kind, nodes)
	}
	return nil
}

// BuildMesh is the validating variant of NewMesh.
func BuildMesh(nodes int, timing Timing) (*RouterNet, error) {
	if err := validSquare("mesh", nodes); err != nil {
		return nil, err
	}
	return NewMesh(nodes, timing), nil
}

// BuildCMesh is the validating variant of NewCMesh.
func BuildCMesh(nodes int, timing Timing) (*RouterNet, error) {
	const conc = 4
	if nodes <= 0 || nodes%conc != 0 {
		return nil, fmt.Errorf("noc: cmesh needs a positive multiple of %d nodes, got %d", conc, nodes)
	}
	if err := validSquare("cmesh router grid", nodes/conc); err != nil {
		return nil, err
	}
	return NewCMesh(nodes, timing), nil
}

// BuildFlattenedButterfly is the validating variant of
// NewFlattenedButterfly.
func BuildFlattenedButterfly(nodes int, timing Timing) (*RouterNet, error) {
	const conc = 4
	if nodes <= 0 || nodes%conc != 0 {
		return nil, fmt.Errorf("noc: flattened butterfly needs 4·k² nodes, got %d", nodes)
	}
	if err := validSquare("flattened butterfly router grid", nodes/conc); err != nil {
		return nil, err
	}
	return NewFlattenedButterfly(nodes, timing), nil
}

// designBuilders is the single name→constructor table behind both
// DesignNames and NewByName (and, through them, the public facade's
// NoCDesignNames/NoCLoadLatency), so the advertised list can never
// drift from what the factory actually builds.
var designBuilders = []struct {
	name string
	mk   func(nodes int, mesh, bus Timing) (Network, error)
}{
	{"mesh", func(n int, m, _ Timing) (Network, error) { return BuildMesh(n, m) }},
	{"cmesh", func(n int, m, _ Timing) (Network, error) { return BuildCMesh(n, m) }},
	{"fbfly", func(n int, m, _ Timing) (Network, error) { return BuildFlattenedButterfly(n, m) }},
	{"sharedbus", func(n int, _, b Timing) (Network, error) { return NewSharedBus77(n, b), nil }},
	{"cryobus", func(n int, _, b Timing) (Network, error) { return NewCryoBus(n, b), nil }},
	{"cryobus-2way", func(n int, _, b Timing) (Network, error) {
		return NewInterleavedBus(2, func() *Bus { return NewCryoBus(n, b) }), nil
	}},
}

// DesignNames lists the named interconnect designs NewByName builds, in
// canonical order.
func DesignNames() []string {
	out := make([]string, len(designBuilders))
	for i, d := range designBuilders {
		out[i] = d.name
	}
	return out
}

// NewByName builds a named interconnect over nodes. Router designs
// clock at the mesh timing, bus designs at the bus timing; invalid node
// counts and unknown names are errors (bus constructors accept any
// positive node count, so only mesh-family shapes can fail).
func NewByName(name string, nodes int, mesh, bus Timing) (Network, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("noc: design %q needs a positive node count, got %d", name, nodes)
	}
	for _, d := range designBuilders {
		if d.name == name {
			return d.mk(nodes, mesh, bus)
		}
	}
	return nil, fmt.Errorf("noc: unknown NoC design %q (have %v)", name, DesignNames())
}

// ApplyFaults degrades the router network per the fault scenario: every
// link the injector declares dead is replaced by its slow spare wire
// (roughly triple the flight time plus the mux turns on and off the
// spare), and the zero-load latency is recomputed over the degraded
// link set. Routing is unchanged — the spare follows the same path —
// so connectivity, deadlock-freedom and the next-hop table hold. The
// domain string namespaces this network's fault pattern (defaults to
// the network name). Call before traffic starts: it panics once a
// packet was injected or a cycle stepped, because Step's schedule is
// sized from the link latencies. A nil or inactive injector is a no-op.
func (rn *RouterNet) ApplyFaults(inj *fault.Injector, domain string) {
	if rn.now > 0 || rn.queued() {
		panic(fmt.Sprintf("noc: %s: ApplyFaults after traffic started (cycle %d); degrade links before the first TryInject or Step", rn.name, rn.now))
	}
	if inj == nil || !inj.Config().Active() {
		return
	}
	if domain == "" {
		domain = rn.name
	}
	id := 0
	degraded := false
	for ri := range rn.routers {
		r := &rn.routers[ri]
		for li := range r.links {
			if inj.LinkDown(domain, id) {
				lnk := &r.links[li]
				lnk.wireCycles = lnk.wireCycles*3 + 2
				degraded = true
			}
			id++
		}
	}
	if degraded {
		rn.sizeSchedule()
		rn.computeZeroLoad()
	}
}

// queued reports whether any input port holds a packet.
func (rn *RouterNet) queued() bool {
	for ri := range rn.routers {
		if rn.routers[ri].occ != 0 {
			return true
		}
	}
	return false
}
