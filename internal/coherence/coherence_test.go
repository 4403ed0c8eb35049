package coherence

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestDirectoryColdReadIsExclusive(t *testing.T) {
	d := NewDirectory(0)
	tx := d.Access(0x40, 3, 10, false, true)
	st, owner, sharers := d.State(0x40)
	if st != Exclusive || owner != 3 || sharers != 0 {
		t.Errorf("after cold read: %v owner %d sharers %d, want E/3/0", st, owner, sharers)
	}
	if tx.DRAM {
		t.Error("L3 hit should not touch DRAM")
	}
	if !tx.L3Access {
		t.Error("cold read must access the L3")
	}
	// Two legs: request to home, data back.
	if len(tx.Legs) != 2 || tx.Legs[0].Kind != Request || tx.Legs[1].Kind != Data {
		t.Errorf("cold read legs = %+v", tx.Legs)
	}
}

func TestDirectoryColdWriteIsModified(t *testing.T) {
	d := NewDirectory(0)
	d.Access(0x80, 5, 9, true, false)
	st, owner, _ := d.State(0x80)
	if st != Modified || owner != 5 {
		t.Errorf("after cold write: %v owner %d, want M/5", st, owner)
	}
}

func TestDirectoryThreeHopForward(t *testing.T) {
	d := NewDirectory(0)
	d.Access(0x40, 1, 10, true, true) // core 1 owns M
	tx := d.Access(0x40, 2, 10, false, true)
	if !tx.CacheToCache {
		t.Error("read of a remote-M line must be cache-to-cache")
	}
	// 3-hop: request (2→10), forward (10→1), data (1→2).
	if len(tx.Legs) != 3 {
		t.Fatalf("legs = %+v, want 3-hop", tx.Legs)
	}
	if tx.Legs[1].Kind != Forward || tx.Legs[1].To != 1 {
		t.Errorf("forward leg wrong: %+v", tx.Legs[1])
	}
	if tx.Legs[2].From != 1 || tx.Legs[2].To != 2 || tx.Legs[2].Kind != Data {
		t.Errorf("data leg wrong: %+v", tx.Legs[2])
	}
	st, _, sharers := d.State(0x40)
	if st != Shared || sharers != 2 {
		t.Errorf("after downgrade: %v with %d sharers, want S/2", st, sharers)
	}
}

func TestDirectoryWriteInvalidatesSharers(t *testing.T) {
	d := NewDirectory(0)
	d.Access(0x40, 1, 10, false, true)
	d.Access(0x40, 2, 10, false, true)
	tx := d.Access(0x40, 3, 10, true, true)
	// Both sharers get individual invalidations — the directory
	// fan-out a snooping broadcast avoids.
	if len(tx.Invalidations) != 2 {
		t.Errorf("write to a 2-sharer line produced %d invalidations, want 2", len(tx.Invalidations))
	}
	for _, leg := range tx.Invalidations {
		if leg.Kind != Invalidate || leg.From != 10 {
			t.Errorf("bad invalidation leg %+v", leg)
		}
	}
	st, owner, sharers := d.State(0x40)
	if st != Modified || owner != 3 || sharers != 0 {
		t.Errorf("after write: %v/%d/%d, want M/3/0", st, owner, sharers)
	}
}

func TestDirectoryInvariantsUnderRandomTraffic(t *testing.T) {
	d := NewDirectory(4096)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(512)) * 64
		core := rng.Intn(64)
		write := rng.Float64() < 0.3
		d.Access(addr, core, int(addr/64)%64, write, rng.Float64() < 0.7)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnoopBroadcastShape(t *testing.T) {
	s := NewSnoop(0)
	tx := s.Access(0x40, 7, 12, false, true)
	if len(tx.Legs) != 2 {
		t.Fatalf("snoop legs = %+v", tx.Legs)
	}
	if tx.Legs[0].To != -1 || tx.Legs[0].Kind != Request {
		t.Errorf("first leg must be a broadcast request: %+v", tx.Legs[0])
	}
	if tx.Legs[1].Kind != Data || tx.Legs[1].To != 7 {
		t.Errorf("second leg must be directed data: %+v", tx.Legs[1])
	}
}

func TestSnoopCacheToCacheSupply(t *testing.T) {
	s := NewSnoop(0)
	s.Access(0x40, 1, 12, true, true) // core 1 in M
	tx := s.Access(0x40, 2, 12, false, true)
	if !tx.CacheToCache {
		t.Error("snoop on remote-M line must be cache-to-cache")
	}
	if tx.Legs[1].From != 1 {
		t.Errorf("data should come from the owner, got %+v", tx.Legs[1])
	}
	// No extra invalidation messages on writes — the broadcast itself
	// invalidates (the snooping advantage for barrier-heavy code).
	tx = s.Access(0x40, 3, 12, true, true)
	for _, leg := range tx.Legs {
		if leg.Kind == Invalidate || leg.Kind == Forward {
			t.Errorf("snoop write produced %v leg — broadcast should cover it", leg.Kind)
		}
	}
}

func TestSnoopWriteFewerLegsThanDirectory(t *testing.T) {
	// The structural reason snooping wins on shared data: a write to a
	// widely-shared line is 2 legs on the bus vs ≥3 with a directory.
	d := NewDirectory(0)
	s := NewSnoop(0)
	for core := 0; core < 8; core++ {
		d.Access(0x100, core, 4, false, true)
		s.Access(0x100, core, 4, false, true)
	}
	dtx := d.Access(0x100, 9, 4, true, true)
	stx := s.Access(0x100, 9, 4, true, true)
	dMsgs := len(dtx.Legs) + len(dtx.Invalidations)
	sMsgs := len(stx.Legs) + len(stx.Invalidations)
	if sMsgs >= dMsgs {
		t.Errorf("snoop write messages %d not fewer than directory %d", sMsgs, dMsgs)
	}
	if len(stx.Invalidations) != 0 {
		t.Error("snooping must not emit explicit invalidations")
	}
}

func TestSnoopInvariantsUnderRandomTraffic(t *testing.T) {
	s := NewSnoop(4096)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(512)) * 64
		s.Access(addr, rng.Intn(64), int(addr/64)%64, rng.Float64() < 0.3, rng.Float64() < 0.7)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMakesExclusiveOwnerProperty(t *testing.T) {
	// Property: after any write by core c, the line is Modified and
	// owned by c with no sharers — in both protocols.
	f := func(seed int64, coreRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDirectory(0)
		s := NewSnoop(0)
		// Random warm-up traffic.
		for i := 0; i < 50; i++ {
			addr := uint64(rng.Intn(8)) * 64
			d.Access(addr, rng.Intn(16), 3, rng.Float64() < 0.5, true)
			s.Access(addr, rng.Intn(16), 3, rng.Float64() < 0.5, true)
		}
		c := int(coreRaw) % 16
		d.Access(0x40, c, 3, true, true)
		s.Access(0x40, c, 3, true, true)
		ds, downer, dsh := d.State(0x40)
		ss, sowner, ssh := s.State(0x40)
		return ds == Modified && downer == c && dsh == 0 &&
			ss == Modified && sowner == c && ssh == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCapacityEviction(t *testing.T) {
	d := NewDirectory(16)
	for i := 0; i < 100; i++ {
		d.Access(uint64(i)*64, i%8, 3, false, true)
	}
	if n := d.lines.n; n > 16 {
		t.Errorf("directory grew to %d lines, cap 16", n)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Errorf("%d.String() = %q want %q", int(st), st.String(), want)
		}
	}
	if State(42).String() == "" {
		t.Error("unknown state should stringify")
	}
}

// TestFullTableChurnsWithoutAllocating checks that a full table
// evicts and inserts without allocating: the eviction order is a fixed
// ring, not a slice popped from the front and appended to (which cost
// 45 B per access at this size, re-allocating on every wrap). Measured
// with MemStats.TotalAlloc over many accesses, since AllocsPerRun
// rounds an allocation every few thousand accesses down to 0.
func TestFullTableChurnsWithoutAllocating(t *testing.T) {
	const capLines, accesses = 1 << 15, 1 << 18
	d := NewDirectory(capLines)
	var tx Transaction
	addr := uint64(0)
	access := func(n int) {
		for i := 0; i < n; i++ {
			d.AccessInto(&tx, addr, int(addr/64)%64, 3, i%4 == 0, true)
			addr += 64
		}
	}
	// Fill the table and churn through it twice, so its index reaches
	// its steady size before the measurement.
	access(3 * capLines)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	access(accesses)
	runtime.ReadMemStats(&after)
	if n := d.lines.n; n != capLines {
		t.Fatalf("table tracks %d lines, want %d", n, capLines)
	}
	if perAccess := (after.TotalAlloc - before.TotalAlloc) / accesses; perAccess != 0 {
		t.Errorf("full table allocates %d B per access, want 0", perAccess)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestResetTableMatchesNew checks that a reset table carries nothing
// over: after churning it through one protocol's traffic, a reset table
// run through the other view produces the transactions and states a
// new table does.
func TestResetTableMatchesNew(t *testing.T) {
	traffic := func(access func(addr uint64, core int, write bool) Transaction, seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		var out strings.Builder
		for i := 0; i < 5000; i++ {
			tx := access(uint64(rng.Intn(300))*64, rng.Intn(16), rng.Float64() < 0.3)
			fmt.Fprintf(&out, "%v", tx)
		}
		return out.String()
	}
	used := NewLineTable(128)
	traffic(func(a uint64, c int, w bool) Transaction { return used.Directory().Access(a, c, 3, w, true) }, 1)
	used.Reset()
	got := traffic(func(a uint64, c int, w bool) Transaction { return used.Snoop().Access(a, c, 3, w, true) }, 2)
	fresh := NewSnoop(128)
	want := traffic(func(a uint64, c int, w bool) Transaction { return fresh.Access(a, c, 3, w, true) }, 2)
	if got != want {
		t.Error("a reset table's transactions differ from a new table's")
	}
	if err := used.Snoop().CheckInvariants(); err != nil {
		t.Error(err)
	}
}
