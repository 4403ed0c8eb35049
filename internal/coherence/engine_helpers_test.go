package coherence

import "fmt"

// Test-only views of the protocol engines: constructors over a table
// of their own, value-returning Access wrappers, per-line state and the
// MESI invariant checks.

// NewDirectory builds a directory over a new table bounded to capLines
// tracked lines.
func NewDirectory(capLines int) Directory { return NewLineTable(capLines).Directory() }

// NewSnoop builds the snooping engine over a new table bounded to
// capLines tracked lines.
func NewSnoop(capLines int) Snoop { return NewLineTable(capLines).Snoop() }

// count returns the number of set bits.
func (b *bitset) count() int {
	n := 0
	for _, w := range b {
		for w != 0 {
			w &= w - 1
			n++
		}
	}
	return n
}

// state reports the tracked state of addr (Invalid if untracked).
func (t *LineTable) state(addr uint64) (State, int, int) {
	slot, ok := t.find(addr)
	if !ok {
		return Invalid, -1, 0
	}
	l := t.entry(int(t.slots[slot]) - 1)
	return l.state, l.owner, l.sharers.count()
}

// checkInvariants verifies that the index finds every tracked line and
// nothing else, and the MESI global invariants over all tracked lines;
// it returns the first violation found.
func (t *LineTable) checkInvariants() error {
	indexed := 0
	for _, e := range t.slots {
		if e != 0 {
			indexed++
		}
	}
	if indexed != t.n {
		return fmt.Errorf("coherence: index holds %d lines, table %d", indexed, t.n)
	}
	for e := 0; e < t.n; e++ {
		l := t.entry(e)
		addr := l.addr
		if slot, ok := t.find(addr); !ok || int(t.slots[slot]) != e+1 {
			return fmt.Errorf("coherence: index lost line %#x", addr)
		}
		switch l.state {
		case Modified, Exclusive:
			if l.owner < 0 {
				return fmt.Errorf("coherence: line %#x in %v without owner", addr, l.state)
			}
			if l.sharers.count() != 0 {
				return fmt.Errorf("coherence: line %#x in %v with %d sharers", addr, l.state, l.sharers.count())
			}
		case Shared:
			if l.owner != -1 {
				return fmt.Errorf("coherence: line %#x Shared with owner %d", addr, l.owner)
			}
			if l.sharers.count() == 0 {
				return fmt.Errorf("coherence: line %#x Shared with no sharers", addr)
			}
		}
	}
	return nil
}

// State reports the tracked state of addr (Invalid if untracked).
func (d Directory) State(addr uint64) (State, int, int) { return d.lines.state(addr) }

// Access performs a read (write=false) or write (write=true) by core
// against the line whose L3 home slice is home, returning the message
// sequence. l3Hit tells the protocol whether the home L3 slice holds
// the line when no cache owns it.
func (d Directory) Access(addr uint64, core, home int, write, l3Hit bool) Transaction {
	var tx Transaction
	d.AccessInto(&tx, addr, core, home, write, l3Hit)
	return tx
}

// CheckInvariants verifies the MESI global invariants over all tracked
// lines; it returns the first violation found.
func (d Directory) CheckInvariants() error { return d.lines.checkInvariants() }

// Access performs the snooping transaction. The broadcast request is
// one bus transaction; the data reply is a directed transfer.
func (s Snoop) Access(addr uint64, core, home int, write, l3Hit bool) Transaction {
	var tx Transaction
	s.AccessInto(&tx, addr, core, home, write, l3Hit)
	return tx
}

// State reports the tracked state of addr.
func (s Snoop) State(addr uint64) (State, int, int) { return s.lines.state(addr) }

// CheckInvariants verifies the MESI invariants for the snooping engine.
func (s Snoop) CheckInvariants() error { return s.lines.checkInvariants() }
