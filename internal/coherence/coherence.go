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
	addr    uint64
	state   State
	owner   int
	sharers bitset
}

// bitset tracks up to 256 sharer cores.
type bitset [4]uint64

func (b *bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }
func (b *bitset) clear()    { *b = bitset{} }

func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

// LineTable is the bounded table of tracked line states. The two
// protocol engines are views of it (Directory and Snoop read and write
// the same entries through their own transitions), so a caller that
// reuses a table across simulations (Reset) keeps one whichever
// protocol the next simulation runs.
//
// At capacity the oldest line is evicted silently, mimicking finite
// L3/directory capacity. Entries are stored in insertion order until
// the table fills, so the eviction order is a fixed ring over the
// entries: the victim is always the entry at next, and the new line
// takes its place. Entries live in fixed pages, so a growing table
// never copies or drops them, and the address index is an
// open-addressing hash table that only grows (a Go map re-allocates as
// deletions wear it), so a full table churns addresses without
// allocating.
type LineTable struct {
	// pages hold the entries, linePage a page; n counts the entries in
	// use.
	pages []*[linePage]line
	n     int
	next  int
	// slots is the address index, linear probing at load at most 1/2:
	// entry+1 per slot, 0 for an empty slot. It has 2^(64-shift)
	// slots.
	slots    []int32
	shift    uint
	capLines int
}

// linePage is the number of entries a page holds. Simulations at
// quick run lengths track a few hundred to two thousand lines and at
// CLI lengths up to about five and a half thousand, so a table sized
// for capLines up front would mostly sit empty.
const (
	pageBits = 9
	linePage = 1 << pageBits
)

// minIndexBits sizes a new table's index: 2^8 slots, doubled as the
// table fills.
const minIndexBits = 8

// NewLineTable builds a table bounded to capLines tracked lines (a
// default of 2^16 when capLines <= 0).
func NewLineTable(capLines int) *LineTable {
	if capLines <= 0 {
		capLines = 1 << 16
	}
	return &LineTable{slots: make([]int32, 1<<minIndexBits), shift: 64 - minIndexBits, capLines: capLines}
}

// Reset empties the table in place, keeping its storage, so the next
// simulation starts from untracked lines exactly as a new table would.
func (t *LineTable) Reset() {
	clear(t.slots)
	t.n = 0
	t.next = 0
}

// Directory returns the directory-protocol view of the table.
func (t *LineTable) Directory() Directory { return Directory{t} }

// Snoop returns the snooping-protocol view of the table.
func (t *LineTable) Snoop() Snoop { return Snoop{t} }

// entry returns entry e.
func (t *LineTable) entry(e int) *line {
	return &t.pages[e>>pageBits][e&(linePage-1)]
}

// home is addr's first probe slot (Fibonacci hashing: line addresses
// are multiples of 64 with structured high bits, so their low bits
// alone would cluster).
func (t *LineTable) home(addr uint64) int {
	return int((addr * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns addr's slot in the index, or the empty slot where it
// would go.
func (t *LineTable) find(addr uint64) (slot int, ok bool) {
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return i, false
		}
		if t.entry(int(e)-1).addr == addr {
			return i, true
		}
	}
}

// unindex empties an index slot, shifting later entries of its probe
// run back so every lookup still finds them (deletion without
// tombstones).
func (t *LineTable) unindex(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if h := t.home(t.entry(int(t.slots[j]) - 1).addr); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
}

// grow doubles the index and re-inserts every entry.
func (t *LineTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	t.shift--
	for e := 0; e < t.n; e++ {
		slot, _ := t.find(t.entry(e).addr)
		t.slots[slot] = int32(e + 1)
	}
}

// get fetches or creates the line entry; a created entry is Invalid
// with no owner.
func (t *LineTable) get(addr uint64) *line {
	slot, ok := t.find(addr)
	if ok {
		return t.entry(int(t.slots[slot]) - 1)
	}
	e := t.next
	if t.n < t.capLines {
		e = t.n
		t.n++
		if e>>pageBits == len(t.pages) {
			t.pages = append(t.pages, new([linePage]line))
		}
	} else {
		t.next = (e + 1) % t.capLines
		victim, _ := t.find(t.entry(e).addr)
		t.unindex(victim)
	}
	l := t.entry(e)
	*l = line{addr: addr, state: Invalid, owner: -1}
	if 2*t.n > len(t.slots) {
		t.grow()
	}
	// Unindexing or growing may have moved the free slot.
	slot, _ = t.find(addr)
	t.slots[slot] = int32(e + 1)
	return l
}

// Directory is the home-node-based MESI protocol engine over a
// LineTable. One Directory tracks all lines; the home node of a line
// is supplied by the caller (address interleaving across L3 slices).
type Directory struct{ lines *LineTable }

// AccessInto performs a read (write=false) or write (write=true) by
// core against the line whose L3 home slice is home, writing the
// message sequence into a caller-owned Transaction. l3Hit tells the
// protocol whether the home L3 slice holds the line when no cache owns
// it. The transaction is reset and its slices reused, so a caller that
// recycles Transactions (the simulator's txn pool) generates no garbage
// per access.
func (d Directory) AccessInto(tx *Transaction, addr uint64, core, home int, write, l3Hit bool) {
	l := d.lines.get(addr)
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

// Snoop is the broadcast-based MESI engine for the CryoBus designs,
// over a LineTable: every L2 miss broadcasts on the bus; the owner (or
// the home L3 slice) answers with a directed data transfer that
// CryoBus's dynamic link connection routes point-to-point (§5.2.3).
type Snoop struct{ lines *LineTable }

// AccessInto performs the snooping transaction into a caller-owned
// Transaction, with Directory.AccessInto's reset-and-reuse semantics.
// The broadcast request is one bus transaction; the data reply is a
// directed transfer.
func (s Snoop) AccessInto(tx *Transaction, addr uint64, core, home int, write, l3Hit bool) {
	l := s.lines.get(addr)
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
