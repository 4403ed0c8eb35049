// Package coherence implements the two cache-coherence protocols of
// Table 4: a directory-based MESI protocol (used by the Mesh designs,
// with the L3 slices keeping directory state for their address range)
// and a snooping MESI protocol (used by CryoBus). Given a memory access
// it returns the network message sequence ("legs") the protocol
// generates, which the full-system simulator turns into real packets on
// the cycle-level NoC.
package coherence

import (
	"fmt"
	"math/bits"
)

// State is a MESI line state.
type State int

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// LegKind classifies one message of a transaction.
type LegKind int

// Message kinds.
const (
	// Request is a control message to the home node (directory) or a
	// broadcast (snoop).
	Request LegKind = iota
	// Forward is a directory-to-owner intervention.
	Forward
	// Data carries a cache line.
	Data
	// Invalidate is a directory-to-sharer invalidation (acks are
	// folded into the same leg's round trip).
	Invalidate
)

// Leg is one network message of a coherence transaction. To == -1
// denotes a broadcast.
type Leg struct {
	From, To int
	Kind     LegKind
}

// Transaction is the ordered message sequence a protocol produced,
// plus whether DRAM is accessed at the home node (L3 miss) and whether
// the L3 array is accessed.
type Transaction struct {
	Legs     []Leg
	L3Access bool
	DRAM     bool
	// Invalidations is the parallel fan-out stage of a directory write
	// to a shared line: one message per sharer, all of which must be
	// delivered (acks collected) before the data leg may proceed. The
	// fan-out is what makes widely-shared lines (locks, barrier flags)
	// pathological on directory protocols; a snooping broadcast
	// invalidates everyone for free.
	Invalidations []Leg
	// CacheToCache reports that the data came from a remote L2, not
	// the L3/DRAM (the fast path snooping gives barrier-heavy code).
	CacheToCache bool
}

// reset clears the transaction for reuse, keeping the slice capacity so
// a recycled Transaction appends without allocating.
func (tx *Transaction) reset() {
	tx.Legs = tx.Legs[:0]
	tx.Invalidations = tx.Invalidations[:0]
	tx.L3Access = false
	tx.DRAM = false
	tx.CacheToCache = false
}

// line is the tracked global state of one cache line. Sharers are a
// bitset so iteration is deterministic (simulation reproducibility).
type line struct {
	state   State
	owner   int
	sharers bitset
}

// bitset tracks up to 256 sharer cores.
type bitset [4]uint64

func (b *bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }
func (b *bitset) clear()    { *b = bitset{} }

func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

// Directory is the home-node-based MESI protocol engine. One Directory
// instance tracks all lines; the home node of a line is supplied by the
// caller (address interleaving across L3 slices).
type Directory struct {
	lines    map[uint64]*line
	order    []uint64 // FIFO eviction order (deterministic)
	capLines int
}

// NewDirectory builds a directory bounded to about capLines tracked
// lines (older lines are evicted silently, mimicking finite L3/
// directory capacity).
func NewDirectory(capLines int) *Directory {
	if capLines <= 0 {
		capLines = 1 << 16
	}
	return &Directory{lines: make(map[uint64]*line), capLines: capLines}
}

// get fetches or creates the line entry. At capacity the oldest line is
// evicted and its entry recycled, so a full directory churns addresses
// without allocating.
func (d *Directory) get(addr uint64) *line {
	l, ok := d.lines[addr]
	if !ok {
		for len(d.lines) >= d.capLines && len(d.order) > 0 {
			victim := d.order[0]
			d.order = d.order[1:]
			l = d.lines[victim]
			delete(d.lines, victim)
		}
		if l == nil {
			l = &line{}
		}
		*l = line{state: Invalid, owner: -1}
		d.lines[addr] = l
		d.order = append(d.order, addr)
	}
	return l
}

// AccessInto performs a read (write=false) or write (write=true) by
// core against the line whose L3 home slice is home, writing the
// message sequence into a caller-owned Transaction. l3Hit tells the
// protocol whether the home L3 slice holds the line when no cache owns
// it. The transaction is reset and its slices reused, so a caller that
// recycles Transactions (the simulator's txn pool) generates no garbage
// per access.
func (d *Directory) AccessInto(tx *Transaction, addr uint64, core, home int, write, l3Hit bool) {
	l := d.get(addr)
	tx.reset()
	req := Leg{From: core, To: home, Kind: Request}
	tx.Legs = append(tx.Legs, req)
	switch l.state {
	case Invalid:
		tx.L3Access = true
		tx.DRAM = !l3Hit
		tx.Legs = append(tx.Legs, Leg{From: home, To: core, Kind: Data})
		if write {
			l.state = Modified
			l.owner = core
		} else {
			l.state = Exclusive
			l.owner = core
		}
	case Exclusive, Modified:
		if l.owner == core {
			// Silent upgrade/hit at the owner — still a directory call
			// because the simulator only consults us on L2 misses; treat
			// as L3-refresh.
			tx.L3Access = true
			tx.Legs = append(tx.Legs, Leg{From: home, To: core, Kind: Data})
			if write {
				l.state = Modified
			}
			break
		}
		// 3-hop: forward to owner, owner supplies the data.
		tx.CacheToCache = true
		tx.Legs = append(tx.Legs,
			Leg{From: home, To: l.owner, Kind: Forward},
			Leg{From: l.owner, To: core, Kind: Data},
		)
		if write {
			l.sharers.clear()
			l.state = Modified
			l.owner = core
		} else {
			l.sharers.set(l.owner)
			l.sharers.set(core)
			l.state = Shared
			l.owner = -1
		}
	case Shared:
		if write {
			// Invalidate every sharer; the requester's data waits for
			// all acks. Iterated inline (ascending, like bitset.each) so
			// the hot path carries no escaping closure.
			for wi, w := range l.sharers {
				for w != 0 {
					sh := wi*64 + trailingZeros(w)
					w &= w - 1
					if sh != core {
						tx.Invalidations = append(tx.Invalidations, Leg{From: home, To: sh, Kind: Invalidate})
					}
				}
			}
			tx.L3Access = true
			tx.Legs = append(tx.Legs, Leg{From: home, To: core, Kind: Data})
			l.sharers.clear()
			l.state = Modified
			l.owner = core
		} else {
			tx.L3Access = true
			tx.Legs = append(tx.Legs, Leg{From: home, To: core, Kind: Data})
			l.sharers.set(core)
		}
	}
}

// Snoop is the broadcast-based MESI engine for the CryoBus designs:
// every L2 miss broadcasts on the bus; the owner (or the home L3
// slice) answers with a directed data transfer that CryoBus's dynamic
// link connection routes point-to-point (§5.2.3).
type Snoop struct {
	lines    map[uint64]*line
	order    []uint64
	capLines int
}

// NewSnoop builds the snooping engine.
func NewSnoop(capLines int) *Snoop {
	if capLines <= 0 {
		capLines = 1 << 16
	}
	return &Snoop{lines: make(map[uint64]*line), capLines: capLines}
}

func (s *Snoop) get(addr uint64) *line {
	l, ok := s.lines[addr]
	if !ok {
		for len(s.lines) >= s.capLines && len(s.order) > 0 {
			victim := s.order[0]
			s.order = s.order[1:]
			l = s.lines[victim]
			delete(s.lines, victim)
		}
		if l == nil {
			l = &line{}
		}
		*l = line{state: Invalid, owner: -1}
		s.lines[addr] = l
		s.order = append(s.order, addr)
	}
	return l
}

// AccessInto performs the snooping transaction into a caller-owned
// Transaction, with Directory.AccessInto's reset-and-reuse semantics.
// The broadcast request is one bus transaction; the data reply is a
// directed transfer.
func (s *Snoop) AccessInto(tx *Transaction, addr uint64, core, home int, write, l3Hit bool) {
	l := s.get(addr)
	tx.reset()
	// Snoop broadcast: the request itself reaches every cache.
	tx.Legs = append(tx.Legs, Leg{From: core, To: -1, Kind: Request})
	supplier := home
	switch l.state {
	case Modified, Exclusive:
		if l.owner != core {
			supplier = l.owner
			tx.CacheToCache = true
		} else {
			tx.L3Access = true
		}
	case Shared:
		// Any sharer or the L3 supplies; L3 is the common case.
		tx.L3Access = true
	case Invalid:
		tx.L3Access = true
		tx.DRAM = !l3Hit
	}
	tx.Legs = append(tx.Legs, Leg{From: supplier, To: core, Kind: Data})
	// State update: the broadcast invalidates on writes — no extra
	// messages needed (that is the snooping advantage).
	if write {
		l.state = Modified
		l.owner = core
		l.sharers.clear()
	} else {
		switch l.state {
		case Invalid:
			l.state = Exclusive
			l.owner = core
		case Exclusive, Modified:
			if l.owner != core {
				l.sharers.set(l.owner)
				l.sharers.set(core)
				l.state = Shared
				l.owner = -1
			}
		case Shared:
			l.sharers.set(core)
		}
	}
}
