// Package noc is a cycle-level on-chip network simulator in the spirit
// of BookSim (§5): router-based topologies (Mesh, Concentrated Mesh,
// Flattened Butterfly), shared buses (conventional serpentine,
// H-tree-shaped CryoBus with dynamic link connection and matrix
// arbitration), address-interleaved buses, and the 256-core hybrid
// CryoBus. Wire-link speed enters as "tile hops per NoC cycle" (4 at
// 300 K, 12 at 77 K from the wire-link model), which is the lever the
// fast cryogenic global wires pull.
package noc

import (
	"fmt"
	"math"

	"cryowire/internal/phys"
	"cryowire/internal/wire"
)

// Packet is the unit of transfer. A broadcast packet (snoop) has
// Dst == Broadcast.
//
// Packets are values. A network copies the packet TryInject accepts and
// owns that copy until it delivers it; a delivery hook receives the
// delivered copy by value. Nothing the caller holds is referenced by a
// network, and nothing a network holds is referenced by a caller.
type Packet struct {
	ID       int64
	Src, Dst int
	// Flits is the serialization length in link cycles (1 for control/
	// snoop packets, more for data).
	Flits      int
	InjectedAt int64
	// Slot is the injecting side's scratch: a reference (table index +
	// 1; 0 means unreferenced) that lets it find its bookkeeping for a
	// delivered packet without a map lookup. Networks carry it
	// untouched.
	Slot int32
}

// Broadcast as a destination delivers the packet to every other node.
const Broadcast = -1

// Network is a steppable cycle-level interconnect.
type Network interface {
	Nodes() int
	// TryInject offers a packet at its source this cycle; it reports
	// false when the source queue is full (back-pressure). An accepted
	// packet is copied; a refused one leaves the network unchanged.
	TryInject(p Packet) bool
	// Step advances one NoC cycle.
	Step()
	// Cycle returns the current cycle number.
	Cycle() int64
	// Stats returns accumulated delivery statistics.
	Stats() *Stats
	// ZeroLoadLatency returns the analytic contention-free latency in
	// cycles for an average transfer (the Fig 16 ingredient).
	ZeroLoadLatency() float64
}

// Stats accumulates delivered-packet statistics.
type Stats struct {
	Delivered    int64
	TotalLatency int64 // sum over delivered packets, cycles
	MaxLatency   int64
	// Retransmits counts transfers that arrived corrupted and were
	// NACKed and re-sent (fault injection only).
	Retransmits int64
	// GrantStalls counts arbitration cycles whose grant pulse was lost
	// (fault injection only).
	GrantStalls int64
}

// Record notes a delivery.
func (s *Stats) Record(p Packet, now int64) {
	lat := now - p.InjectedAt
	s.Delivered++
	s.TotalLatency += lat
	if lat > s.MaxLatency {
		s.MaxLatency = lat
	}
}

// Timing captures the temperature-dependent NoC clocking of Table 4.
type Timing struct {
	Name         string
	FreqGHz      float64 // NoC clock
	HopsPerCycle int     // 2 mm tile hops a signal covers per cycle
	RouterCycles int     // per-router pipeline depth (1 aggressive, 3 industrial)
}

// routerCritPath is the router's critical path decomposition: heavily
// logic-dominated (arbiters, crossbar control), giving the marginal
// +9.3 % frequency at 77 K that strands router-based NoCs (§5.1).
const (
	routerTrFrac   = 0.98
	routerWireFrac = 0.02
)

// RouterSpeedup returns the router clock gain at op relative to 300 K.
func RouterSpeedup(op phys.OperatingPoint, m *phys.MOSFET) float64 {
	local := wire.NewLine(wire.Local, 0.3, 4)
	wireSp := wire.Speedup(local, op, m, false)
	d := routerTrFrac*m.GateDelayFactor(op) + routerWireFrac/wireSp
	return 1 / d
}

// MeshTiming returns mesh timing at the operating point, with the given
// router pipeline depth.
func MeshTiming(op phys.OperatingPoint, m *phys.MOSFET, routerCycles int) Timing {
	const base = 4.0
	return Timing{
		Name:         fmt.Sprintf("mesh@%gK", float64(op.T)),
		FreqGHz:      base * RouterSpeedup(op, m),
		HopsPerCycle: wire.NoCHopsPerCycle(op, m),
		RouterCycles: routerCycles,
	}
}

// BusTiming returns shared-bus timing: buses have no routers and run at
// the 4 GHz system clock; only the wire speed changes with temperature.
func BusTiming(op phys.OperatingPoint, m *phys.MOSFET) Timing {
	return Timing{
		Name:         fmt.Sprintf("bus@%gK", float64(op.T)),
		FreqGHz:      4.0,
		HopsPerCycle: wire.NoCHopsPerCycle(op, m),
		RouterCycles: 0,
	}
}

// WireCycles converts a distance in tile hops to link cycles.
func (t Timing) WireCycles(tileHops int) int {
	if tileHops <= 0 {
		return 0
	}
	c := int(math.Ceil(float64(tileHops) / float64(t.HopsPerCycle)))
	if c < 1 {
		c = 1
	}
	return c
}

// Op77 is the nominal-voltage 77 K point.
func Op77() phys.OperatingPoint { return wire.At77() }
